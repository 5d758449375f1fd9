type t = {
  now : float array;
  (* one cell, not a mutable float field: in a mixed record every store
     to a mutable float field allocates a fresh box, and the dispatch
     loop stores the clock once per event. A float array cell is
     unboxed storage, so advancing the clock allocates nothing. *)
  wake : float array;
      (* [0]: the wake-up time [sleep] hands to its effect handler, in
         a cell for the same reason as [now] *)
  mutable seq : int;
  mutable stopped : bool;
  mutable events : int; (* events executed since creation *)
  queue : Eventq.t;
  timers : Eventq.t;
      (* Watchdog timers (RPC timeouts and the like) live in their own
         heap: they are numerous, long-dated and almost always dead by
         the time they fire, and in the main heap they deepened every
         sift the busy events pay for. Both heaps draw from the single
         [seq] counter, and dispatch merges them by comparing full
         (time, seq) keys, so the execution order is exactly what a
         single heap would produce. *)
  mutable parking : slot;
      (* the slot [park] hands to its effect handler; it keeps pointing
         at the last one used, which holds nothing once unparked *)
  (* The two suspensions, built once per engine: the effect value each
     one performs, and the [Some handler] its effect clause answers
     with. Performing [Sleep t] or [Park t] therefore allocates only
     the continuation: [sleep] queues the continuation itself as its
     wake-up event, and [park] stores it in the slot. *)
  sleep_eff : unit Effect.t;
  on_sleep : ((unit, unit) Effect.Deep.continuation -> unit) option;
  park_eff : unit Effect.t;
  on_park : ((unit, unit) Effect.Deep.continuation -> unit) option;
}

(* [Eventq.no_k] when empty, so parking stores the continuation
   without a [Some] box *)
and slot = { mutable parked : (unit, unit) Effect.Deep.continuation }

type _ Effect.t += Sleep : t -> unit Effect.t | Park : t -> unit Effect.t

let create () =
  let rec t =
    {
      now = [| 0.0 |];
      wake = [| 0.0 |];
      seq = 0;
      stopped = false;
      events = 0;
      queue = Eventq.create ();
      timers = Eventq.create ();
      parking = { parked = Eventq.no_k };
      sleep_eff = Sleep t;
      on_sleep =
        Some
          (fun k ->
            let seq = t.seq in
            t.seq <- seq + 1;
            Eventq.push_k t.queue ~at:t.wake ~seq k);
      park_eff = Park t;
      on_park = Some (fun k -> t.parking.parked <- k);
    }
  in
  (* registered at creation, so the gauges exist whenever a registry is
     installed before the world is built (Driver.run arranges this).
     sim_events_total is a cumulative poll rather than a counter bumped
     per event: the engine keeps its own native count (below), so the
     dispatch loop pays nothing for metrics even when a registry is
     installed. *)
  Obs.Metrics.register_poll "sim_event_queue_depth" (fun () ->
      float_of_int (Eventq.length t.queue + Eventq.length t.timers));
  Obs.Metrics.register_poll ~cumulative:true "sim_events_total" (fun () ->
      float_of_int t.events);
  t

let now t = t.now.(0)
let events_executed t = t.events

let at t time fn =
  if time < t.now.(0) then
    invalid_arg
      (Printf.sprintf "Engine.at: time %g is before now %g" time t.now.(0));
  let seq = t.seq in
  t.seq <- seq + 1;
  Eventq.push t.queue ~time ~seq fn

let after t delay fn = at t (t.now.(0) +. delay) fn

(* identical semantics to [after], but queued on the timer heap *)
let timer t delay fn =
  if delay < 0.0 then invalid_arg "Engine.timer: negative delay";
  let seq = t.seq in
  t.seq <- seq + 1;
  Eventq.push t.timers ~time:(t.now.(0) +. delay) ~seq fn

exception Process_failure of string * exn * Printexc.raw_backtrace

let () =
  Printexc.register_printer (function
    | Process_failure (name, e, _) ->
        Some
          (Printf.sprintf "process %S failed with %s" name
             (Printexc.to_string e))
    | _ -> None)

(* One handler for every process of every engine: the dedicated
   effects carry their engine, and the process name lives in the
   process body (below), so [spawn] allocates no handler record and no
   per-process handler closures. *)
let handler : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type b) (eff : b Effect.t) :
           ((b, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Sleep t -> t.on_sleep
        | Park t -> t.on_park
        | _ -> None);
  }

let spawn t ?(name = "anon") fn =
  (* the failure is named inside the fiber, where the name is in
     scope; the shared handler's [exnc] only re-raises it *)
  let body () =
    match fn () with
    | () -> ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        raise (Process_failure (name, e, bt))
  in
  after t 0.0 (fun () -> Effect.Deep.match_with body () handler)

let stop t = t.stopped <- true

(* The heap holding the globally earliest event, by full (time, seq)
   key, so the merged order matches what a single heap would produce.
   Returns the (empty) timer heap when both are empty, which the
   dispatch loop's [due] check then refuses. *)
let next_queue t =
  if Eventq.is_empty t.queue then t.timers
  else if Eventq.is_empty t.timers || Eventq.precedes t.queue t.timers then
    t.queue
  else t.timers

(* Per dispatched event: next_queue's [precedes], the [due] check, and
   [fire], which advances the clock cell unboxed and calls the closure
   or resumes the continuation — the loop itself allocates nothing and
   compares nothing it doesn't need. The count is bumped before the
   event runs, so an event that raises is still counted. *)
let dispatch_until t limit =
  t.stopped <- false;
  let continue_loop = ref true in
  while !continue_loop do
    if t.stopped then continue_loop := false
    else begin
      let q = next_queue t in
      if Eventq.due q limit then begin
        t.events <- t.events + 1;
        Eventq.fire q t.now
      end
      else continue_loop := false
    end
  done

let run t = dispatch_until t infinity

let run_until t limit =
  dispatch_until t limit;
  if t.now.(0) < limit then t.now.(0) <- limit

let sleep t d =
  if d < 0.0 then invalid_arg "Engine.sleep: negative duration";
  t.wake.(0) <- t.now.(0) +. d;
  Effect.perform t.sleep_eff

let yield t = sleep t 0.0

let slot () = { parked = Eventq.no_k }
let parked s = s.parked != Eventq.no_k

let park t s =
  if parked s then invalid_arg "Engine.park: slot already holds a process";
  t.parking <- s;
  Effect.perform t.park_eff

let unpark s =
  let k = s.parked in
  if k == Eventq.no_k then invalid_arg "Engine.unpark: no process parked";
  s.parked <- Eventq.no_k;
  Effect.Deep.continue k ()
