(* The benchmark's own spans, recorded from outside the program around
   the calls it makes into each layer. Each span carries host start and
   end, the simulated time it covered, the minor words allocated in it,
   and its parent. Spans stay in memory and are written out once, at
   the end of the traced run. *)

let host_ns () = Monotonic_clock.now ()
let host_s () = Int64.to_float (host_ns ()) *. 1e-9

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  host_start : int64;
  mutable host_end : int64;
  sim_start : float;
  mutable sim_end : float;
  words_start : float;
  mutable words_end : float;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 1 }

let start t ~parent ~name ~sim =
  let s =
    {
      id = t.next;
      parent;
      name;
      host_start = host_ns ();
      host_end = 0L;
      sim_start = sim;
      sim_end = sim;
      words_start = Gc.minor_words ();
      words_end = 0.0;
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

let finish s ~sim =
  s.words_end <- Gc.minor_words ();
  s.host_end <- host_ns ();
  s.sim_end <- sim

(* [f] receives the span id, to parent nested spans on. A span whose
   body raises is still finished, so failed units keep their time. *)
let within t ~parent ~name ~sim f =
  let s = start t ~parent ~name ~sim:(sim ()) in
  Fun.protect ~finally:(fun () -> finish s ~sim:(sim ())) (fun () -> f s.id)

let host_us s = Int64.to_float (Int64.sub s.host_end s.host_start) *. 1e-3
let sim_s s = s.sim_end -. s.sim_start
let words s = s.words_end -. s.words_start
let spans t = List.rev t.spans

(* Count, mean inclusive host us, mean simulated ms and mean minor
   words of the finished spans called [name]. *)
type summary = { calls : int; host_us : float; sim_ms : float; words : float }

let summarize t name =
  let sel = List.filter (fun s -> s.name = name && s.host_end <> 0L) t.spans in
  let n = List.length sel in
  let mean f =
    if n = 0 then 0.0
    else List.fold_left (fun a s -> a +. f s) 0.0 sel /. float_of_int n
  in
  {
    calls = n;
    host_us = mean host_us;
    sim_ms = mean (fun s -> sim_s s *. 1e3);
    words = mean words;
  }

let to_json t =
  let row s =
    Printf.sprintf
      "{\"id\": %d, \"parent\": %d, \"name\": %s, \"host_start_ns\": %Ld, \
       \"host_end_ns\": %Ld, \"sim_start_s\": %.9f, \"sim_end_s\": %.9f, \
       \"minor_words\": %.0f}"
      s.id s.parent (Perfbench.Spec.escape s.name) s.host_start s.host_end s.sim_start
      s.sim_end (words s)
  in
  "[\n" ^ String.concat ",\n" (List.map row (spans t)) ^ "\n]\n"

(* ---- one span per VFS call ----

   [wrap_fs] returns a file system whose every closure records a span
   around the wrapped one. Vnodes are re-tagged on the way in and out,
   so a caller holding a vnode from the wrapper keeps calling through
   the wrapper, and the wrapped implementation only ever sees its own
   vnodes. *)

let vfs_ops = [ "lookup"; "getattr"; "open"; "close"; "read_block"; "write_block" ]

let wrap_fs t ~parent ~engine (inner : Vfs.Fs.t) : Vfs.Fs.t =
  let sim () = Sim.Engine.now engine in
  let call name f = within t ~parent ~name ~sim (fun _ -> f ()) in
  let rec outer =
    {
      inner with
      Vfs.Fs.root = (fun () -> out (inner.root ()));
      lookup = (fun ~dir n -> call "lookup" (fun () -> out (inner.lookup ~dir:(inn dir) n)));
      create = (fun ~dir n -> call "create" (fun () -> out (inner.create ~dir:(inn dir) n)));
      mkdir = (fun ~dir n -> call "mkdir" (fun () -> out (inner.mkdir ~dir:(inn dir) n)));
      remove = (fun ~dir n -> call "remove" (fun () -> inner.remove ~dir:(inn dir) n));
      rmdir = (fun ~dir n -> call "rmdir" (fun () -> inner.rmdir ~dir:(inn dir) n));
      rename =
        (fun ~fromdir a ~todir b ->
          call "rename" (fun () ->
              inner.rename ~fromdir:(inn fromdir) a ~todir:(inn todir) b));
      readdir = (fun v -> call "readdir" (fun () -> inner.readdir (inn v)));
      getattr = (fun v -> call "getattr" (fun () -> inner.getattr (inn v)));
      setattr = (fun v ~size -> call "setattr" (fun () -> inner.setattr (inn v) ~size));
      fs_open = (fun v m -> call "open" (fun () -> inner.fs_open (inn v) m));
      fs_close = (fun v m -> call "close" (fun () -> inner.fs_close (inn v) m));
      read_block =
        (fun v ~index -> call "read_block" (fun () -> inner.read_block (inn v) ~index));
      write_block =
        (fun v ~index ~stamp ~len ->
          call "write_block" (fun () -> inner.write_block (inn v) ~index ~stamp ~len));
      fsync = (fun v -> call "fsync" (fun () -> inner.fsync (inn v)));
    }
  and out v = { v with Vfs.Fs.fs = outer }
  and inn v = { v with Vfs.Fs.fs = inner } in
  outer

(* The testbed's application context with every mount wrapped. The
   mount points are the testbed's documented layout; a file system
   mounted twice is wrapped once, so cross-directory renames still see
   one file system. *)
let wrap_ctx t ~parent ~mount_points (ctx : Workload.App.t) =
  let engine = ctx.engine in
  let wrapped = ref [] in
  let wrap fs =
    match List.assq_opt fs !wrapped with
    | Some w -> w
    | None ->
        let w = wrap_fs t ~parent ~engine fs in
        wrapped := (fs, w) :: !wrapped;
        w
  in
  let mounts = Vfs.Mount.create () in
  List.iter
    (fun at ->
      let root = Vfs.Mount.resolve ctx.mounts at in
      Vfs.Mount.mount mounts ~at (wrap root.Vfs.Fs.fs))
    mount_points;
  Workload.App.make ~mounts ~host:ctx.host
