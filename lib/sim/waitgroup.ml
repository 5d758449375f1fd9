type t = {
  engine : Engine.t;
  mutable count : int;
  mutable waiters : Engine.slot list; (* newest first *)
}

let create engine = { engine; count = 0; waiters = [] }

let add t ?(n = 1) () =
  if n < 0 then invalid_arg "Waitgroup.add: negative count";
  t.count <- t.count + n

let release t =
  let ws = List.rev t.waiters in
  t.waiters <- [];
  List.iter Engine.unpark ws

let done_ t =
  if t.count <= 0 then invalid_arg "Waitgroup.done_: below zero";
  t.count <- t.count - 1;
  if t.count = 0 then release t

let wait t =
  if t.count > 0 then begin
    let s = Engine.slot () in
    t.waiters <- s :: t.waiters;
    Engine.park t.engine s
  end

let outstanding t = t.count
