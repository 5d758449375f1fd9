(** Binary min-heap of timestamped events.

    Events are ordered by time; ties are broken by insertion sequence
    number so that the simulation is fully deterministic.

    An event is either a closure, called when it fires, or a
    suspended process's continuation, resumed when it fires. The heap
    itself holds only each event's (time, seq) key and the number of
    the slot its payload sits in, so reordering the heap stores no
    pointer; push and pop allocate nothing. *)

type t

val create : unit -> t

(** [push t ~time ~seq fn] inserts event [fn] to fire at [time]. *)
val push : t -> time:float -> seq:int -> (unit -> unit) -> unit

(** [push_k t ~at ~seq k] inserts an event that resumes [k] (with
    [()]) at time [at.(0)]. The time travels in a float cell (the
    engine's wake-up cell) rather than as a float argument, which is
    boxed wherever the call is not inlined, so queuing a suspended
    process allocates nothing in any build. Raises [Invalid_argument]
    if [k] is {!no_k}. *)
val push_k :
  t ->
  at:float array ->
  seq:int ->
  (unit, unit) Effect.Deep.continuation ->
  unit

(** Earliest event, by (time, seq). Raises [Not_found] if empty, and
    [Invalid_argument] if that event is a continuation (only {!fire}
    resumes those). *)
val pop : t -> float * int * (unit -> unit)

(** Time of the earliest event. Raises [Not_found] if empty. Does not
    allocate an option; the caller pays one float box at most. *)
val min_time : t -> float

(** Sequence number of the earliest event. Raises [Not_found] if
    empty. With {!min_time} this exposes the full ordering key, so two
    queues sharing one sequence counter can be merged by comparing
    tops (the engine's main/timer split relies on this). *)
val min_seq : t -> int

(** [precedes a b] is true when [a]'s earliest event orders before
    [b]'s, by the full (time, seq) key. Both queues must be
    non-empty. The comparison lives here so the dispatch loop never
    moves a raw timestamp across the module boundary (a float return
    is fine, but two per event plus the seq reads added up). *)
val precedes : t -> t -> bool

(** The do-nothing closure used to fill the closure slots of events
    that are not closures. Compare with [==]. *)
val nop : unit -> unit

(** A continuation that is never resumed: the value of every slot
    that holds no process, here and in the engine's park slots.
    Compare with [==]. Resuming it raises [Invalid_argument]. *)
val no_k : (unit, unit) Effect.Deep.continuation

(** [due t limit] is true when [t] is non-empty and its earliest event
    is at a time [<= limit]. *)
val due : t -> float -> bool

(** [fire t cell] removes the earliest event, stores its time in
    [cell.(0)] (unboxed — meant for the engine's clock cell), and runs
    it: calls its closure or resumes its continuation. The event's
    slot is cleared first, so a fired payload is not retained. Raises
    [Not_found] if empty. Read {!due} first to bound the time. *)
val fire : t -> float array -> unit

(** Remove and return the earliest event's closure (by (time, seq)).
    Raises as {!pop} does. The zero-allocation form of {!pop}: read
    {!min_time} first if the timestamp is needed. *)
val pop_fn : t -> unit -> unit

val is_empty : t -> bool
val length : t -> int
