(** Discrete-event simulation engine with a process model.

    The engine owns a virtual clock and an event queue. Processes are
    ordinary OCaml functions run under an effect handler; inside a
    process, {!sleep} and {!park} block the process (in virtual time)
    without blocking the host program. All scheduling is
    deterministic: simultaneous events fire in the order they were
    scheduled.

    Each of the two suspensions has its own effect, answered without
    building closures, so a wait costs its continuation and nothing
    else: [sleep] queues the continuation itself as its wake-up event.
    Waits that hand a value to the woken process ({!Ivar}, {!Mailbox})
    park in a slot and leave the value in their own state. *)

type t

val create : unit -> t

(** Current virtual time, in seconds. *)
val now : t -> float

(** Number of events the dispatch loop has executed since [create].
    The numerator of the events/sec macro-benchmark (bench/perf.ml);
    also exported to the metrics registry as the cumulative poll
    [sim_events_total]. *)
val events_executed : t -> int

(** [at t time fn] schedules callback [fn] at absolute virtual [time].
    Raises [Invalid_argument] if [time] is in the past. *)
val at : t -> float -> (unit -> unit) -> unit

(** [after t delay fn] schedules [fn] to run [delay] seconds from now. *)
val after : t -> float -> (unit -> unit) -> unit

(** [timer t delay fn] is {!after} for watchdogs: same semantics and
    the same global execution order, but the event is kept on a
    dedicated timer heap. Use it for long-dated timeouts that are
    usually obsolete by the time they fire (RPC retransmission
    timers); keeping them out of the main heap keeps the sift depth
    of the busy events independent of how many watchdogs are
    outstanding. Raises [Invalid_argument] on negative delay. *)
val timer : t -> float -> (unit -> unit) -> unit

(** [spawn t fn] creates a new process executing [fn]. The process
    starts when the engine next reaches the head of its event queue (it
    never runs synchronously inside [spawn]). [name] is used in error
    reports. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** Run until the event queue drains or {!stop} is called. Exceptions
    raised by processes propagate out of [run]. *)
val run : t -> unit

(** Halt {!run} / {!run_until} after the current event. Daemon
    processes (periodic syncers, keepalive loops) keep the event queue
    populated forever, so a driver whose work is done calls [stop].
    The engine can be run again afterwards. *)
val stop : t -> unit

(** Run until the given virtual time (events strictly later stay
    queued, and the clock is left at the limit). *)
val run_until : t -> float -> unit

(** {2 Operations usable only inside a process} *)

(** Block the calling process for the given virtual duration. *)
val sleep : t -> float -> unit

(** A place where one process waits until something wakes it. Parking
    allocates only the continuation. Whatever the woken process needs
    (a reply, a message) travels through the caller's own record that
    holds the slot, such as the RPC client's call record. *)
type slot

(** A fresh, empty slot. *)
val slot : unit -> slot

(** [park t s] blocks the calling process until {!unpark}[ s].
    Raises [Invalid_argument] if [s] already holds a process. *)
val park : t -> slot -> unit

(** [unpark s] resumes the process parked in [s], synchronously: it
    runs until its next suspension before [unpark] returns. Raises
    [Invalid_argument] if no process is parked. *)
val unpark : slot -> unit

(** Whether a process is parked in the slot. *)
val parked : slot -> bool

(** Reschedule the calling process after all events already queued at
    the current instant. *)
(* snfs-lint: allow interface-drift — core cooperative-scheduling primitive *)
val yield : t -> unit
