(* [ctx] is the causal context of the operation the I/O serves
   ({!Obs.Causal.none} for background write-back), passed through so
   the disk layer can tag its spans with the inducing operation. *)
type backend = {
  read_block : ctx:Obs.Causal.t -> file:int -> index:int -> int * int;
  write_block :
    ctx:Obs.Causal.t -> file:int -> index:int -> stamp:int -> len:int -> unit;
}

(* Write state of a block. The dirty-since time lives in the block's
   one-cell [since] array, so no state change allocates: a payload
   ([Dirty of float]) would box the time on every first write, and a
   record per write-back would be allocated on every flush.
   [Redirtied] is a write-back in flight whose block was written again
   at [since.(0)]; it goes back to [Dirty] when the write completes. *)
type wstate = Clean | Dirty | Writing | Redirtied

type block = {
  bfile : int;
  bindex : int;
  mutable stamp : int;
  mutable len : int;
  mutable fetching : (int * int) Sim.Ivar.t option;
  mutable w : wstate;
  (* dirty-since time while [Dirty]/[Redirtied]: a float array cell is
     stored unboxed, a mutable float field in this record would not be *)
  since : float array;
  mutable doomed : bool; (* deleted while a write/fetch was in flight *)
  mutable write_waiters : Sim.Engine.slot list;
  (* Intrusive links. A self-loop ([b.lru_next == b]) means "not
     linked on that side": option links would allocate a [Some] box on
     every touch, and the LRU is touched once per cache hit. The LRU
     list is circular through a sentinel block; the per-file chain is
     a plain doubly-linked list whose head hangs off [file_heads]. *)
  mutable lru_prev : block;
  mutable lru_next : block;
  mutable fprev : block; (* per-file chain, insertion order *)
  mutable fnext : block;
}

type pending = { mutable count : int; mutable waiters : Sim.Engine.slot list }

type t = {
  engine : Sim.Engine.t;
  name : string;
  write_behind_name : string; (* process names, built once *)
  flusher_name : string;
  capacity : int;
  block_size : int;
  backend : backend;
  (* Open-addressing table from packed (file, index) keys to blocks
     (linear probing, power-of-two capacity, load factor <= 1/2).
     [find] runs on every cache read and write; Hashtbl's generic int
     hashing and bucket chains were a steady profile line, and here a
     probe is a physical compare and an int compare. [tempty] and
     [ttomb] are sentinel blocks marking never-used and deleted slots;
     keys in those slots are meaningless. [tempty] is also what [find]
     returns for an absent block, compared by [==]. *)
  mutable tkeys : int array;
  mutable tvals : block array;
  mutable tlive : int; (* real entries *)
  mutable tused : int; (* real entries + tombstones *)
  tempty : block;
  ttomb : block;
  file_heads : (int, block) Hashtbl.t; (* newest block of each file *)
  mutable count : int;
  lru : block; (* sentinel: lru_next side is least recently used *)
  pending : (int, pending) Hashtbl.t; (* async write-behinds per file *)
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable writes_averted : int;
  mutable evictions : int;
  mutable syncer_started : bool;
}

let new_block ~file ~index =
  let rec b =
    {
      bfile = file;
      bindex = index;
      stamp = 0;
      len = 0;
      fetching = None;
      w = Clean;
      since = [| 0.0 |];
      doomed = false;
      write_waiters = [];
      lru_prev = b;
      lru_next = b;
      fprev = b;
      fnext = b;
    }
  in
  b

(* ---- open-addressing block table ---- *)

(* The probe loops are top-level functions with every value they need
   passed as an argument: a local [let rec probe] that reads the
   enclosing function's variables is a closure, allocated on each
   lookup (DESIGN §11.1 rule 9). *)

(* multiplicative mixing so packed keys (file lsl 21 lor index, where
   both halves are small) spread over the low bits used for the slot *)
let tab_index t k =
  let h = (k * 0x9E3779B1) lxor (k asr 21) in
  h land (Array.length t.tkeys - 1)

let rec tab_find_at t (keys : int array) (vals : block array) mask k i =
  let v = Array.unsafe_get vals i in
  if v == t.tempty then v
  else if v != t.ttomb && Array.unsafe_get keys i = k then v
  else tab_find_at t keys vals mask k ((i + 1) land mask)

(* the block stored under [k], or [t.tempty] *)
let tab_find t k =
  let keys = t.tkeys in
  tab_find_at t keys t.tvals (Array.length keys - 1) k (tab_index t k)

let rec tab_place_at t (keys : int array) (vals : block array) mask k v i =
  if Array.unsafe_get vals i == t.tempty then begin
    Array.unsafe_set keys i k;
    Array.unsafe_set vals i v
  end
  else tab_place_at t keys vals mask k v ((i + 1) land mask)

(* raw insert during rehash: no duplicate or tombstone checks *)
let tab_place t k v =
  let keys = t.tkeys in
  tab_place_at t keys t.tvals (Array.length keys - 1) k v (tab_index t k)

let tab_rehash t cap =
  let keys = t.tkeys and vals = t.tvals in
  t.tkeys <- Array.make cap 0;
  t.tvals <- Array.make cap t.tempty;
  t.tused <- t.tlive;
  for i = 0 to Array.length vals - 1 do
    let v = Array.unsafe_get vals i in
    if v != t.tempty && v != t.ttomb then tab_place t keys.(i) v
  done

(* [slot] remembers the first tombstone passed (-1: none yet), so
   deleted slots are reused before empty ones *)
let rec tab_add_at t (keys : int array) (vals : block array) mask k b i slot =
  let v = Array.unsafe_get vals i in
  if v == t.tempty then begin
    let dst = if slot >= 0 then slot else i in
    if dst = i then t.tused <- t.tused + 1;
    Array.unsafe_set keys dst k;
    Array.unsafe_set vals dst b;
    t.tlive <- t.tlive + 1
  end
  else if v != t.ttomb && Array.unsafe_get keys i = k then
    Array.unsafe_set vals i b (* overwrite in place *)
  else
    tab_add_at t keys vals mask k b
      ((i + 1) land mask)
      (if slot < 0 && v == t.ttomb then i else slot)

let tab_add t k b =
  (* keep load factor (including tombstones) at or below 1/2; rehash
     in place when tombstones alone crossed the threshold *)
  if 2 * (t.tused + 1) > Array.length t.tkeys then
    tab_rehash t
      (if 2 * (t.tlive + 1) > Array.length t.tkeys then
         2 * Array.length t.tkeys
       else Array.length t.tkeys);
  let keys = t.tkeys in
  tab_add_at t keys t.tvals (Array.length keys - 1) k b (tab_index t k) (-1)

let rec tab_remove_at t (keys : int array) (vals : block array) mask k i =
  let v = Array.unsafe_get vals i in
  if v == t.tempty then false
  else if v != t.ttomb && Array.unsafe_get keys i = k then begin
    Array.unsafe_set vals i t.ttomb;
    t.tlive <- t.tlive - 1;
    true
  end
  else tab_remove_at t keys vals mask k ((i + 1) land mask)

let tab_remove t k =
  let keys = t.tkeys in
  tab_remove_at t keys t.tvals (Array.length keys - 1) k (tab_index t k)

let tab_iter t f =
  let vals = t.tvals in
  for i = 0 to Array.length vals - 1 do
    let v = Array.unsafe_get vals i in
    if v != t.tempty && v != t.ttomb then f v
  done

let create engine ~name ~capacity_blocks ~block_size backend =
  if capacity_blocks <= 0 then invalid_arg "Cache.create: capacity must be > 0";
  let tempty = new_block ~file:(-1) ~index:0 in
  let t =
    {
      engine;
      name;
      write_behind_name = name ^ ".write_behind";
      flusher_name = name ^ ".flusher";
      capacity = capacity_blocks;
      block_size;
      backend;
      tkeys = Array.make 512 0;
      tvals = Array.make 512 tempty;
      tlive = 0;
      tused = 0;
      tempty;
      ttomb = new_block ~file:(-1) ~index:0;
      file_heads = Hashtbl.create 64;
      count = 0;
      lru = new_block ~file:(-1) ~index:0;
      pending = Hashtbl.create 16;
      hits = 0;
      misses = 0;
      writebacks = 0;
      writes_averted = 0;
      evictions = 0;
      syncer_started = false;
    }
  in
  Obs.Metrics.register_poll
    ~labels:[ ("cache", name) ]
    "cache_resident_blocks"
    (fun () -> float_of_int t.count);
  Obs.Metrics.register_poll
    ~labels:[ ("cache", name) ]
    "cache_dirty_blocks"
    (fun () ->
      (* a count is order-independent, so the unsorted table walk is
         deterministic *)
      let n = ref 0 in
      tab_iter t (fun b -> if b.w != Clean then incr n);
      float_of_int !n);
  t

let name t = t.name
let block_size t = t.block_size
let capacity_blocks t = t.capacity
let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
let writes_averted t = t.writes_averted
let evictions t = t.evictions
let resident_blocks t = t.count

(* One instant per cache action on this cache's own track. Args carry
   the block's (file, index) address only — never its stamp, which is a
   process-global counter and would break trace determinism across runs
   in one process. Inside this module [ctx] travels positionally: an
   optional argument passed on as [~ctx] would box a [Some] per call. *)
let cache_incr t metric =
  if Obs.Metrics.on () then
    Obs.Metrics.incr ~labels:[ ("cache", t.name) ] metric

let cache_event t ctx name ~file ~index =
  if Obs.Trace.on () && Obs.Causal.keep ctx then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"cache" ~name ~track:t.name
      ~args:
        (Obs.Causal.arg ctx
           [ ("file", Obs.Trace.Int file); ("index", Obs.Trace.Int index) ])
      ()

(* ---- LRU list ---- *)

(* circular through the sentinel; no allocation on any path *)
let lru_unlink _t b =
  if b.lru_next != b then begin
    b.lru_prev.lru_next <- b.lru_next;
    b.lru_next.lru_prev <- b.lru_prev;
    b.lru_prev <- b;
    b.lru_next <- b
  end

let lru_append t b =
  let s = t.lru in
  let last = s.lru_prev in
  last.lru_next <- b;
  b.lru_prev <- last;
  b.lru_next <- s;
  s.lru_prev <- b

let touch t b =
  lru_unlink t b;
  lru_append t b

(* ---- table ---- *)

(* One flat table with the block address packed into a single int key:
   the lookup on every cache read/write hashes one immediate int
   instead of walking two tables. 21 bits of index is a 2 GB file at
   1 kB blocks — far beyond anything the workloads create — and leaves
   40+ bits for file ids. *)
let index_bits = 21

let key ~file ~index =
  if index < 0 || index lsr index_bits <> 0 then
    invalid_arg (Printf.sprintf "Cache: block index %d out of range" index);
  (file lsl index_bits) lor index

(* the resident block, or the [t.tempty] sentinel *)
let find t ~file ~index = tab_find t (key ~file ~index)

(* newest block of the file's chain, or [t.tempty] when the cache
   holds none of it *)
let file_head t file =
  match Hashtbl.find t.file_heads file with
  | h -> h
  | exception Not_found -> t.tempty

(* The per-file doubly-linked chain replaces the old per-file hash
   tables for whole-file walks (flush, invalidate, drop). Chain order
   is reverse insertion order — deterministic; callers that need a
   particular order sort, as they already did for the hash walk. *)
let chain_unlink t b =
  (if b.fprev == b then begin
     (* no predecessor: b is the head of its chain, or unlinked *)
     if file_head t b.bfile == b then
       if b.fnext == b then Hashtbl.remove t.file_heads b.bfile
       else begin
         b.fnext.fprev <- b.fnext;
         Hashtbl.replace t.file_heads b.bfile b.fnext
       end
   end
   else if b.fnext == b then b.fprev.fnext <- b.fprev (* prev becomes tail *)
   else begin
     b.fprev.fnext <- b.fnext;
     b.fnext.fprev <- b.fprev
   end);
  b.fprev <- b;
  b.fnext <- b

let chain_push t b =
  let h = file_head t b.bfile in
  if h == t.tempty then b.fnext <- b
  else begin
    b.fnext <- h;
    h.fprev <- b
  end;
  b.fprev <- b;
  Hashtbl.replace t.file_heads b.bfile b

let table_remove t b =
  let k = key ~file:b.bfile ~index:b.bindex in
  if tab_remove t k then begin
    t.count <- t.count - 1;
    lru_unlink t b;
    chain_unlink t b
  end

let table_insert t b =
  tab_add t (key ~file:b.bfile ~index:b.bindex) b;
  chain_push t b;
  t.count <- t.count + 1;
  lru_append t b

(* Chain walks from a head block; a self-loop marks the tail. *)

let rec chain_list acc b =
  let acc = b :: acc in
  if b.fnext == b then List.rev acc else chain_list acc b.fnext

let blocks_of_file t ~file =
  let h = file_head t file in
  if h == t.tempty then [] else chain_list [] h

let rec chain_has_dirty b =
  b.w != Clean || (b.fnext != b && chain_has_dirty b.fnext)

let rec chain_dirty_count n b =
  let n = if b.w != Clean then n + 1 else n in
  if b.fnext == b then n else chain_dirty_count n b.fnext

let rec chain_dirty acc b =
  let acc = if b.w != Clean then b :: acc else acc in
  if b.fnext == b then acc else chain_dirty acc b.fnext

let by_index a b = Int.compare a.bindex b.bindex

(* ---- write-back machinery ---- *)

let wake_write_waiters b =
  match b.write_waiters with
  | [] -> ()
  | ws ->
      b.write_waiters <- [];
      List.iter Sim.Engine.unpark (List.rev ws)

(* block the caller until the in-flight write of [b] completes *)
let wait_write t b =
  let s = Sim.Engine.slot () in
  b.write_waiters <- s :: b.write_waiters;
  Sim.Engine.park t.engine s

(* Write the block back if dirty; blocks the caller until the block is
   clean (or the in-flight write it was waiting on completes). [ctx]
   names the operation charged for the write (a `Sync write or flush);
   background write-back passes none. Only [mark_dirty] changes [b.w]
   while the write is in flight, and only to [Redirtied]. *)
let rec writeback t ctx b =
  match b.w with
  | Clean -> ()
  | Writing | Redirtied ->
      wait_write t b;
      writeback t ctx b
  | Dirty ->
      b.w <- Writing;
      t.writebacks <- t.writebacks + 1;
      cache_incr t "cache_writebacks_total";
      cache_event t ctx "writeback" ~file:b.bfile ~index:b.bindex;
      t.backend.write_block ~ctx ~file:b.bfile ~index:b.bindex ~stamp:b.stamp
        ~len:b.len;
      b.w <- (if b.w == Redirtied then Dirty else Clean);
      wake_write_waiters b;
      if b.doomed then table_remove t b

let mark_dirty t b =
  match b.w with
  | Dirty -> () (* keep original age: Unix tracks oldest modification *)
  | Clean ->
      b.since.(0) <- Sim.Engine.now t.engine;
      b.w <- Dirty
  | Writing | Redirtied ->
      b.since.(0) <- Sim.Engine.now t.engine;
      b.w <- Redirtied

(* ---- capacity / eviction ---- *)

let evictable b =
  (not b.doomed)
  && (match b.fetching with None -> true | Some _ -> false)
  && (b.w == Clean || b.w == Dirty)

(* scan from the LRU end for an evictable block; the sentinel if none *)
let rec lru_victim t b =
  if b == t.lru || evictable b then b else lru_victim t b.lru_next

let rec ensure_capacity t =
  if t.count >= t.capacity then begin
    let b = lru_victim t t.lru.lru_next in
    if b == t.lru then begin
      (* everything is in flight; wait a moment and retry *)
      Sim.Engine.sleep t.engine 0.0005;
      ensure_capacity t
    end
    else begin
      (* blocks; may race, rechecked below *)
      if b.w == Dirty then writeback t Obs.Causal.none b;
      (* only evict if it is still present and became clean *)
      if find t ~file:b.bfile ~index:b.bindex == b && evictable b
         && b.w == Clean
      then begin
        t.evictions <- t.evictions + 1;
        cache_incr t "cache_evictions_total";
        cache_event t Obs.Causal.none "evict" ~file:b.bfile ~index:b.bindex;
        table_remove t b
      end;
      ensure_capacity t
    end
  end

(* ---- pending async writes ---- *)

let pending_for t file =
  match Hashtbl.find t.pending file with
  | p -> p
  | exception Not_found ->
      let p = { count = 0; waiters = [] } in
      Hashtbl.replace t.pending file p;
      p

let pending_incr t file =
  let p = pending_for t file in
  p.count <- p.count + 1

let pending_decr t file =
  let p = pending_for t file in
  p.count <- p.count - 1;
  if p.count = 0 then begin
    let ws = List.rev p.waiters in
    p.waiters <- [];
    Hashtbl.remove t.pending file;
    List.iter Sim.Engine.unpark ws
  end

let wait_pending t ~file =
  match Hashtbl.find t.pending file with
  | exception Not_found -> ()
  | p ->
      if p.count > 0 then
        let s = Sim.Engine.slot () in
        p.waiters <- s :: p.waiters;
        Sim.Engine.park t.engine s

(* ---- public data path ---- *)

(* the (stamp, len) pair [read] returns: the one allocation of a hit *)
let contents b = (b.stamp, b.len)

let peek t ~file ~index =
  let b = find t ~file ~index in
  if b == t.tempty then None
  else match b.fetching with None -> Some (contents b) | Some _ -> None

(* Miss path: make room, then join a fetch that started meanwhile or
   start one, coalescing concurrent misses on the block. *)
let read_miss t ctx ~file ~index =
  t.misses <- t.misses + 1;
  cache_incr t "cache_misses_total";
  cache_event t ctx "miss" ~file ~index;
  ensure_capacity t;
  (* recheck: someone may have inserted it while we evicted *)
  let b = find t ~file ~index in
  if b != t.tempty then
    match b.fetching with
    | Some iv -> Sim.Ivar.read iv
    | None ->
        touch t b;
        contents b
  else begin
    let b = new_block ~file ~index in
    let iv = Sim.Ivar.create t.engine in
    b.fetching <- Some iv;
    table_insert t b;
    let stamp, len = t.backend.read_block ~ctx ~file ~index in
    (match b.fetching with
    | Some iv' when iv' == iv ->
        b.stamp <- stamp;
        b.len <- len;
        b.fetching <- None
    | Some _ | None -> () (* overwritten while fetching *));
    let result = contents b in
    Sim.Ivar.fill iv result;
    if b.doomed then table_remove t b;
    result
  end

let read ?(ctx = Obs.Causal.none) t ~file ~index =
  let b = find t ~file ~index in
  if b == t.tempty then read_miss t ctx ~file ~index
  else begin
    cache_event t ctx "hit" ~file ~index;
    cache_incr t "cache_hits_total";
    t.hits <- t.hits + 1;
    match b.fetching with
    | Some iv -> Sim.Ivar.read iv
    | None ->
        touch t b;
        contents b
  end

(* the block to write into when it is not resident: make room, then
   take one inserted meanwhile or insert a fresh one *)
let install t ~file ~index =
  ensure_capacity t;
  let b = find t ~file ~index in
  if b != t.tempty then b
  else begin
    let b = new_block ~file ~index in
    table_insert t b;
    b
  end

let write_behind t ctx b ~file =
  pending_incr t file;
  Sim.Engine.spawn t.engine ~name:t.write_behind_name (fun () ->
      (* write-behind completes after the caller returns: charge it
         to the operation anyway — it induced the disk write *)
      writeback t ctx b;
      pending_decr t file)

let write ?(ctx = Obs.Causal.none) t ~file ~index ~stamp ~len mode =
  if len < 0 || len > t.block_size then
    invalid_arg (Printf.sprintf "Cache.write: bad length %d" len);
  let b = find t ~file ~index in
  let b = if b == t.tempty then install t ~file ~index else b in
  b.stamp <- stamp;
  if len > b.len then b.len <- len;
  b.fetching <- None;
  touch t b;
  mark_dirty t b;
  match mode with
  | `Delayed -> ()
  | `Sync -> writeback t ctx b
  | `Async -> write_behind t ctx b ~file

(* ---- consistency operations ---- *)

(* one pass over a snapshot of the file's dirty blocks, in index order *)
let flush_dirty t ctx head =
  let dirty = List.sort by_index (chain_dirty [] head) in
  (* a per-file flush is protocol-required work, not table fan-out *)
  (* snfs-fanout: bounded — the dirty blocks of a single file *)
  List.iter (fun b -> writeback t ctx b) dirty

(* A clean file costs one table lookup and a chain walk. Each pass
   writes back a snapshot of the dirty blocks; a write may land while
   a pass blocks, so the file is rechecked until a walk finds it
   clean. *)
let rec flush_chain t ctx file =
  let h = file_head t file in
  if h != t.tempty && chain_has_dirty h then begin
    flush_dirty t ctx h;
    flush_chain t ctx file
  end

let flush_file ?(ctx = Obs.Causal.none) t ~file = flush_chain t ctx file

let flush_all t =
  let files = Hashtbl.fold (fun file _ acc -> file :: acc) t.file_heads [] in
  List.iter (fun file -> flush_file t ~file) (List.sort compare files)

let flush_block ?(ctx = Obs.Causal.none) t ~file ~index =
  let b = find t ~file ~index in
  if b != t.tempty then writeback t ctx b

let drop_block t ~file ~index =
  let b = find t ~file ~index in
  if b != t.tempty then
    match (b.w, b.fetching) with
    | Dirty, _ ->
        t.writes_averted <- t.writes_averted + 1;
        cache_incr t "cache_writes_averted_total";
        b.w <- Clean;
        table_remove t b
    | (Writing | Redirtied), _ -> b.doomed <- true
    | Clean, None -> table_remove t b
    | Clean, Some _ -> b.doomed <- true

let drop_clean t ~file =
  List.iter
    (fun b ->
      match (b.w, b.fetching) with
      | Clean, None -> table_remove t b
      | Clean, Some _ -> b.doomed <- true
      | (Dirty | Writing | Redirtied), _ -> ())
    (blocks_of_file t ~file)

let block_dirty t ~file ~index =
  let b = find t ~file ~index in
  b != t.tempty && b.w != Clean

let dirty_count t ~file =
  let h = file_head t file in
  if h == t.tempty then 0 else chain_dirty_count 0 h

let holds_file t ~file = Hashtbl.mem t.file_heads file

let invalidate_file t ~file =
  let blocks = blocks_of_file t ~file in
  List.iter
    (fun b ->
      match (b.w, b.fetching) with
      | Clean, None -> table_remove t b
      | Clean, Some _ -> b.doomed <- true
      | (Dirty | Writing | Redirtied), _ ->
          invalid_arg "Cache.invalidate_file: file has dirty blocks")
    blocks

let cancel_dirty t ~file =
  let blocks = blocks_of_file t ~file in
  let averted = ref 0 in
  List.iter
    (fun b ->
      match (b.w, b.fetching) with
      | Dirty, _ ->
          incr averted;
          t.writes_averted <- t.writes_averted + 1;
          cache_incr t "cache_writes_averted_total";
          b.w <- Clean;
          table_remove t b
      | (Writing | Redirtied), _ ->
          b.doomed <- true (* in flight; dropped on completion *)
      | Clean, None -> table_remove t b
      | Clean, Some _ -> b.doomed <- true)
    blocks;
  !averted

(* ---- syncer ---- *)

(* Flush a batch with bounded parallelism, like the pool of biod-style
   write-back daemons real clients ran; a serial flusher could not keep
   up with a busy application. *)
let flush_batch t ?(parallelism = 4) victims =
  match victims with
  | [] -> ()
  | victims ->
      let pool = Sim.Semaphore.create t.engine parallelism in
      let wg = Sim.Waitgroup.create t.engine in
      Sim.Waitgroup.add wg ~n:(List.length victims) ();
      List.iter
        (fun b ->
          Sim.Engine.spawn t.engine ~name:t.flusher_name (fun () ->
              Sim.Semaphore.with_unit pool (fun () ->
                  writeback t Obs.Causal.none b);
              Sim.Waitgroup.done_ wg))
        victims;
      Sim.Waitgroup.wait wg

let by_address a b =
  let c = Int.compare a.bfile b.bfile in
  if c <> 0 then c else Int.compare a.bindex b.bindex

let start_syncer t ?(min_age = 0.0) ~interval () =
  if t.syncer_started then invalid_arg "Cache.start_syncer: already started";
  t.syncer_started <- true;
  let rec loop () =
    Sim.Engine.sleep t.engine interval;
    let now = Sim.Engine.now t.engine in
    let victims =
      let acc = ref [] in
      tab_iter t (fun b ->
          if b.w == Dirty && now -. b.since.(0) >= min_age then
            acc := b :: !acc);
      List.sort by_address !acc
    in
    flush_batch t victims;
    loop ()
  in
  Sim.Engine.spawn t.engine ~name:(t.name ^ ".syncer") loop
