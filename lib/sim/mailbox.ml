(* A blocked receiver: [send] hands it the message directly. A waiter
   whose [recv_timeout] expired is no longer parked and is skipped. *)
type 'a waiter = { slot : Engine.slot; mutable got : 'a option }

type 'a t = {
  engine : Engine.t;
  items : 'a Queue.t;
  waiters : 'a waiter Queue.t;
}

let create engine = { engine; items = Queue.create (); waiters = Queue.create () }

let length t = Queue.length t.items

let is_empty t = Queue.is_empty t.items

let send t v =
  let rec deliver () =
    if Queue.is_empty t.waiters then Queue.push v t.items
    else begin
      let w = Queue.pop t.waiters in
      if Engine.parked w.slot then begin
        w.got <- Some v;
        Engine.unpark w.slot
      end
      else deliver ()
    end
  in
  deliver ()

(* Parks the caller until a message arrives or, with [timeout], until
   it elapses; the message, or [None] *)
let await ?timeout t =
  let w = { slot = Engine.slot (); got = None } in
  Queue.push w t.waiters;
  (match timeout with
  | None -> ()
  | Some d ->
      Engine.after t.engine d (fun () ->
          if Engine.parked w.slot then Engine.unpark w.slot));
  Engine.park t.engine w.slot;
  w.got

let recv t =
  if not (Queue.is_empty t.items) then Queue.pop t.items
  else
    match await t with
    | Some v -> v
    | None -> assert false (* only [send] wakes a receiver without a timeout *)

let recv_timeout t timeout =
  if not (Queue.is_empty t.items) then Some (Queue.pop t.items)
  else await ~timeout t
