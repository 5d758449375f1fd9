(* Flat parallel arrays rather than an array of entry records: a
   record-per-event heap allocates on every push (and, with a float
   field in a mixed record, boxes the timestamp too), which at ~50k
   events per Andrew run made the dispatch loop a steady source of
   minor-GC pressure — felt twice over in parallel campaigns, where
   every domain's minor collection stops all domains. With [times] a
   bare float array and the sifts moving a hole instead of swapping,
   push and pop allocate nothing (test_alloc pins this at exactly
   zero minor words).

   The heap is slot-indexed: its three arrays hold only the ordering
   key and a slot number, all unboxed, and each event's payload — a
   closure in [fns] or a continuation in [ks] — stays in its slot from
   push to pop. A sift therefore moves no pointer: storing a pointer
   into an array is a [caml_modify] call, which the old closure-moving
   sifts paid at every level. The payload arrays are written once at
   push and cleared once at pop. The free slots are an int stack kept
   in the tail of [slots] itself: positions [len, capacity) hold the
   numbers of the free slots, so a push takes the one at [len] and a
   pop leaves the freed one at the new [len].

   The sift loops use unsafe array accesses: every index is in
   [0, len) and [len <= Array.length times] is the growth invariant,
   so the bounds checks only cost. *)

type k = (unit, unit) Effect.Deep.continuation

type t = {
  mutable times : float array; (* unboxed float storage *)
  mutable seqs : int array;
  mutable slots : int array;
      (* [0, len): the heap's slot numbers; [len, capacity): the free
         slots, as a stack *)
  mutable fns : (unit -> unit) array; (* by slot; [nop] when not a closure *)
  mutable ks : k array; (* by slot; [no_k] when not a continuation *)
  mutable len : int;
}

let nop () = ()

(* The continuation of a fiber that stops at its first effect and is
   never resumed: the empty value of [ks] and of the engine's park
   slots. Resuming it would raise, so a bug that reaches it fails
   loudly instead of running someone else's process. *)
type _ Effect.t += Capture : unit Effect.t

let no_k : k =
  let captured : k option ref = ref None in
  Effect.Deep.try_with
    (fun () ->
      Effect.perform Capture;
      (invalid_arg "Eventq.no_k: the empty-slot sentinel was resumed" : unit))
    ()
    {
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Capture ->
              Some (fun (k : (a, unit) Effect.Deep.continuation) ->
                  captured := Some k)
          | _ -> None);
    };
  match !captured with Some k -> k | None -> assert false

let create () =
  {
    times = Array.make 64 0.0;
    seqs = Array.make 64 0;
    slots = Array.init 64 Fun.id;
    fns = Array.make 64 nop;
    ks = Array.make 64 no_k;
    len = 0;
  }

let is_empty t = t.len = 0
let length t = t.len

(* Only called when full, so the free stack is empty and the new slots
   [old_cap, cap) become the whole of it. *)
let grow t =
  let old_cap = Array.length t.times in
  let cap = 2 * old_cap in
  let times = Array.make cap 0.0 in
  let seqs = Array.make cap 0 in
  let slots = Array.init cap Fun.id in
  let fns = Array.make cap nop in
  let ks = Array.make cap no_k in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.slots 0 slots 0 t.len;
  Array.blit t.fns 0 fns 0 old_cap;
  Array.blit t.ks 0 ks 0 old_cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.fns <- fns;
  t.ks <- ks

(* Inserts the key and returns the slot the payload goes in. *)
let insert t time seq =
  if t.len = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = Array.unsafe_get slots t.len in
  (* sift the hole up, then place the new key once *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue_sift = ref true in
  while !continue_sift && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue_sift := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  slot

let push t ~time ~seq fn =
  let slot = insert t time seq in
  Array.unsafe_set t.fns slot fn

(* the time comes in a cell, like [fire]'s clock: a float argument
   would be boxed wherever the call is not inlined *)
let push_k t ~at ~seq k =
  if k == no_k then invalid_arg "Eventq.push_k: the empty-slot sentinel";
  let slot = insert t at.(0) seq in
  Array.unsafe_set t.ks slot k

let min_time t =
  if t.len = 0 then raise Not_found;
  t.times.(0)

let min_seq t =
  if t.len = 0 then raise Not_found;
  t.seqs.(0)

(* both queues assumed non-empty; the (time, seq) key comparison stays
   inside the module so no float crosses the boundary *)
let precedes a b =
  let ta = a.times.(0) and tb = b.times.(0) in
  ta < tb || (ta = tb && a.seqs.(0) < b.seqs.(0))

(* Removes the earliest key and returns its slot, which goes back on
   the free stack: the caller reads and clears the payload before
   anything can push again. *)
let remove t =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let top = Array.unsafe_get slots 0 in
  let n = t.len - 1 in
  t.len <- n;
  (* the displaced last key, sifted down as a hole *)
  let lt = Array.unsafe_get times n
  and ls = Array.unsafe_get seqs n
  and lslot = Array.unsafe_get slots n in
  if n > 0 then begin
    let i = ref 0 in
    let continue_sift = ref true in
    while !continue_sift do
      let l = (2 * !i) + 1 in
      if l >= n then continue_sift := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (Array.unsafe_get times r < Array.unsafe_get times l
               || (Array.unsafe_get times r = Array.unsafe_get times l
                  && Array.unsafe_get seqs r < Array.unsafe_get seqs l))
          then r
          else l
        in
        let ct = Array.unsafe_get times c in
        if ct < lt || (ct = lt && Array.unsafe_get seqs c < ls) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue_sift := false
      end
    done;
    Array.unsafe_set times !i lt;
    Array.unsafe_set seqs !i ls;
    Array.unsafe_set slots !i lslot
  end;
  Array.unsafe_set slots n top;
  top

let pop_fn t =
  if t.len = 0 then raise Not_found;
  if Array.unsafe_get t.ks (Array.unsafe_get t.slots 0) != no_k then
    invalid_arg "Eventq.pop_fn: the earliest event is a continuation";
  let slot = remove t in
  let fn = Array.unsafe_get t.fns slot in
  Array.unsafe_set t.fns slot nop;
  fn

let pop t =
  if t.len = 0 then raise Not_found;
  let time = t.times.(0) and seq = t.seqs.(0) in
  let fn = pop_fn t in
  (time, seq, fn)

let due t limit = t.len > 0 && t.times.(0) <= limit

(* The dispatch step. The timestamp goes into [cell.(0)] (the engine's
   clock cell — a float array store, so it is never boxed), and the
   slot is cleared before the event runs, since the event itself may
   push into it. *)
let fire t cell =
  if t.len = 0 then raise Not_found;
  cell.(0) <- t.times.(0);
  let slot = remove t in
  let k = Array.unsafe_get t.ks slot in
  if k == no_k then begin
    let fn = Array.unsafe_get t.fns slot in
    Array.unsafe_set t.fns slot nop;
    fn ()
  end
  else begin
    Array.unsafe_set t.ks slot no_k;
    Effect.Deep.continue k ()
  end
