(* Host cost of single layers, each timed in isolation: the per-call
   costs that, multiplied by a workload's counts, give a layer's share
   of the workload's host time. Each figure is the median of [reps]
   batches, after one untimed batch. *)

type cost = { ns : float; words : float; events : float }

let reps = 5

let median_cost costs =
  let m f = Perfbench.Arith.median (List.map f costs) in
  { ns = m (fun c -> c.ns); words = m (fun c -> c.words); events = m (fun c -> c.events) }

(* [n] calls of [f] per batch; [events] reads the engine's event count
   where the layer runs on one. *)
let per_call ?(events = fun () -> 0) ~n f =
  let batch () =
    let e0 = events () in
    let w0 = Gc.minor_words () in
    let t0 = Spans.host_ns () in
    for i = 1 to n do
      f i
    done;
    let t1 = Spans.host_ns () in
    let w1 = Gc.minor_words () in
    let per x = x /. float_of_int n in
    {
      ns = per (Int64.to_float (Int64.sub t1 t0));
      words = per (w1 -. w0);
      events = per (float_of_int (events () - e0));
    }
  in
  ignore (batch ());
  median_cost (List.init reps (fun _ -> batch ()))

(* Runs [f engine] as the only simulation process and returns its result. *)
let in_process f =
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () ->
      result := Some (f engine);
      Sim.Engine.stop engine);
  Sim.Engine.run engine;
  Option.get !result

(* One no-op event scheduled and dispatched. *)
let dispatch () =
  let e = Sim.Engine.create () in
  let noop () = () in
  per_call ~n:20_000 (fun _ ->
      Sim.Engine.after e 1e-6 noop;
      Sim.Engine.run e)

let attrs =
  { Localfs.ino = 42; gen = 1; ftype = Localfs.File; size = 123456; nlink = 1;
    mtime = 100.5; ctime = 99.0 }

(* Attributes (every reply) and write arguments (file handle, block,
   stamp, length), each encoded through the encoder pool and decoded,
   as an RPC does. *)
let xdr () =
  let fh = { Nfs.Wire.fsid = 1; ino = 42; gen = 1 } in
  per_call ~n:20_000 (fun i ->
      let e = Xdr.Enc.create () in
      Nfs.Wire.enc_attrs e attrs;
      let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
      ignore (Sys.opaque_identity (Nfs.Wire.dec_attrs d));
      let e = Xdr.Enc.create () in
      Nfs.Wire.enc_fh e fh;
      Xdr.Enc.uint32 e i;
      Xdr.Enc.uint32 e (i + 1);
      Xdr.Enc.uint32 e 8192;
      let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
      ignore (Sys.opaque_identity (Nfs.Wire.dec_fh d));
      ignore (Sys.opaque_identity (Xdr.Dec.uint32 d, Xdr.Dec.uint32 d, Xdr.Dec.uint32 d)))
  |> fun c -> { c with ns = c.ns /. 2.0; words = c.words /. 2.0 }

let stub_backend =
  {
    Blockcache.Cache.read_block = (fun ~ctx:_ ~file:_ ~index:_ -> (0, 0));
    write_block = (fun ~ctx:_ ~file:_ ~index:_ ~stamp:_ ~len:_ -> ());
  }

(* Hits re-read one resident block; misses walk more blocks than the
   cache holds, so every read also evicts. *)
let cache () =
  in_process (fun e ->
      let events () = Sim.Engine.events_executed e in
      let c =
        Blockcache.Cache.create e ~name:"bench" ~capacity_blocks:64 ~block_size:4096
          stub_backend
      in
      ignore (Blockcache.Cache.read c ~file:1 ~index:0);
      let hit =
        per_call ~events ~n:20_000 (fun _ ->
            ignore (Sys.opaque_identity (Blockcache.Cache.read c ~file:1 ~index:0)))
      in
      let miss =
        per_call ~events ~n:20_000 (fun i ->
            ignore (Sys.opaque_identity (Blockcache.Cache.read c ~file:2 ~index:i)))
      in
      (hit, miss))

(* One open-for-write and its close: two Table 4-1 transitions. *)
let state_transition () =
  let t = Spritely.State_table.create () in
  per_call ~n:20_000 (fun i ->
      let file = i land 63 in
      ignore (Spritely.State_table.open_file t ~file ~client:1 ~mode:Spritely.State_table.Write);
      Spritely.State_table.close_file t ~file ~client:1 ~mode:Spritely.State_table.Write)
  |> fun c -> { c with ns = c.ns /. 2.0; words = c.words /. 2.0 }

(* A null-handler round trip between two hosts on the default network. *)
let null_call () =
  in_process (fun e ->
      let net = Netsim.Net.create e () in
      let rpc = Netsim.Rpc.create net () in
      let a = Netsim.Net.Host.create net "a" in
      let b = Netsim.Net.Host.create net "b" in
      let empty = { Netsim.Rpc.data = Bytes.empty; bulk = 0 } in
      ignore
        (Netsim.Rpc.serve rpc b ~prog:"null" ~threads:4
           (fun ~caller:_ ~ctx:_ ~proc:_ _ -> empty));
      per_call ~events:(fun () -> Sim.Engine.events_executed e) ~n:5_000 (fun _ ->
          ignore
            (Sys.opaque_identity
               (Netsim.Rpc.call rpc ~src:a ~dst:b ~prog:"null" ~proc:"null" Bytes.empty))))

(* create, lookup, write_block and remove (which keeps the directory
   small) on a server-style file system with synchronous metadata,
   averaged per operation. *)
let localfs_op () =
  in_process (fun e ->
      let disk = Diskm.Disk.create e "bench-disk" in
      let fs =
        Localfs.create e ~name:"benchfs" ~disk ~cache_blocks:896 ~meta_policy:`Sync ()
      in
      let root = Localfs.root fs in
      let dir = Localfs.mkdir fs ~dir:root "d" in
      let round = ref 0 in
      per_call ~events:(fun () -> Sim.Engine.events_executed e) ~n:500 (fun i ->
          if i = 1 then incr round;
          let name = Printf.sprintf "f%d.%d" !round i in
          let ino = Localfs.create_file fs ~dir name in
          ignore (Sys.opaque_identity (Localfs.lookup fs ~dir name));
          Localfs.write_block fs ino ~index:0 ~stamp:i ~len:4096 `Delayed;
          Localfs.remove fs ~dir name))
  |> fun c -> { ns = c.ns /. 4.0; words = c.words /. 4.0; events = c.events /. 4.0 }

(* Probe-site costs with the slot empty and with a sink installed. *)
let metrics_incr ~on =
  let go () = per_call ~n:100_000 (fun _ -> Obs.Metrics.incr "perfbench_probe") in
  if on then Obs.Metrics.with_metrics (Obs.Metrics.create ()) go else go ()

let trace_span ~on =
  let go () =
    per_call ~n:20_000 (fun i ->
        let s = Obs.Trace.span ~ts:(float_of_int i) ~cat:"bench" ~name:"probe" () in
        Obs.Trace.finish ~ts:(float_of_int i) s)
  in
  if on then Obs.Trace.with_tracer (Obs.Trace.create ()) go else go ()
