type 'a t = {
  engine : Engine.t;
  mutable value : 'a option;
  mutable waiters : Engine.slot list; (* newest first *)
}

let create engine = { engine; value = None; waiters = [] }

let is_full t = t.value <> None

let peek t = t.value

let fill t v =
  match t.value with
  | Some _ -> invalid_arg "Ivar.fill: already filled"
  | None ->
      t.value <- Some v;
      let waiters = List.rev t.waiters in
      t.waiters <- [];
      (* a [read_timeout] whose timer fired first is no longer parked *)
      List.iter (fun s -> if Engine.parked s then Engine.unpark s) waiters

(* Parks the caller until [fill] or, with [timeout], until the timer
   fires first; the value, or [None] *)
let await ?timeout t =
  let s = Engine.slot () in
  t.waiters <- s :: t.waiters;
  (match timeout with
  | None -> ()
  | Some d ->
      Engine.timer t.engine d (fun () -> if Engine.parked s then Engine.unpark s));
  Engine.park t.engine s;
  t.value

let read t =
  match t.value with
  | Some v -> v
  | None -> (
      match await t with
      | Some v -> v
      | None -> assert false (* only [fill] wakes a reader without a timeout *))

let read_timeout t timeout =
  match t.value with Some v -> Some v | None -> await ~timeout t
