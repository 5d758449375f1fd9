type t = {
  engine : Engine.t;
  mutable units : int;
  waiters : Engine.slot Queue.t; (* blocked acquirers, FIFO *)
}

let create engine n =
  if n < 0 then invalid_arg "Semaphore.create: negative count";
  { engine; units = n; waiters = Queue.create () }

let available t = t.units

let waiting t = Queue.length t.waiters

let acquire t =
  if t.units > 0 then t.units <- t.units - 1
  else
    let s = Engine.slot () in
    Queue.push s t.waiters;
    Engine.park t.engine s

let try_acquire t =
  if t.units > 0 then begin
    t.units <- t.units - 1;
    true
  end
  else false

let release t =
  if Queue.is_empty t.waiters then t.units <- t.units + 1
  else Engine.unpark (Queue.pop t.waiters)

let with_unit t fn =
  acquire t;
  match fn () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e
