(* The four workloads as fixed lists of units. A unit is one
   self-contained simulation: one Andrew run, one sort, one (protocol,
   clients) scaling run, or one crash seed. Every simulated client runs
   a closed loop (each operation waits for its reply). *)

module T = Experiments.Testbed
module Campaign = Experiments.Campaign

(* Observability for a traced unit: the library's tracer and metrics
   registry, plus the benchmark's own spans under [parent]; with
   [vfs_spans], one span per VFS call too (Andrew only). *)
type obs = {
  trace : Obs.Trace.t;
  metrics : Obs.Metrics.t;
  spans : Spans.t;
  parent : int;
  vfs_spans : bool;
}

type outcome = {
  report : string;  (** deterministic rendering of the simulated result *)
  rpcs : int option;  (** server-executed RPCs, when the result carries them *)
  events : int option;  (** engine events, when the result carries them *)
  verdict_ok : bool;  (** the unit's own check passed *)
  sim_total : float;  (** simulated seconds of the measured run *)
  write_rpcs : int;  (** server-executed WRITE calls *)
}

type unit_ = {
  label : string;
  protocol : string;  (** protocol stack, or Andrew campaign config name *)
  key : string;  (** the same on units that differ only in [protocol] *)
  clients : int;
  seed : int64;
  run : obs option -> outcome;
}

let g = Printf.sprintf "%.17g"

let counts_report counts =
  String.concat ""
    (List.map (fun (p, n) -> Printf.sprintf " %s=%d" p n) (Stats.Counter.to_list counts))

let count counts proc =
  Option.value ~default:0 (List.assoc_opt proc (Stats.Counter.to_list counts))

let counts_total counts =
  List.fold_left (fun a (_, n) -> a + n) 0 (Stats.Counter.to_list counts)

let trace_of = Option.map (fun o -> o.trace)
let metrics_of = Option.map (fun o -> o.metrics)

(* Runs [f] with the unit's tracer and registry installed. The library
   entry points that take them as arguments get them that way instead. *)
let installed obs f =
  match obs with
  | None -> f ()
  | Some o ->
      Obs.Trace.with_tracer o.trace (fun () -> Obs.Metrics.with_metrics o.metrics f)

(* ---- andrew ---- *)

(* The body of Campaign.run_one, spelled out so the traced run can put
   spans around each step and wrap the testbed's mounts. The check that
   it matches Campaign.run_one is in [andrew_matches_campaign]. *)
let andrew_once ?obs (c : Campaign.config) =
  Experiments.Driver.run ?trace:(trace_of obs) ?metrics:(metrics_of obs) (fun engine ->
      let step name f =
        match obs with
        | None -> f ()
        | Some o ->
            Spans.within o.spans ~parent:o.parent ~name
              ~sim:(fun () -> Sim.Engine.now engine)
              (fun _ -> f ())
      in
      let tb =
        step "Testbed.create" (fun () ->
            T.create engine ~protocol:c.protocol ~tmp:c.tmp ())
      in
      let ctx =
        match obs with
        | None | Some { vfs_spans = false; _ } -> T.ctx tb
        | Some o ->
            let mount_points =
              match (c.protocol, c.tmp) with
              | T.Local, _ -> [ "/" ]
              | _, T.Tmp_remote -> [ "/"; "/local" ]
              | _, T.Tmp_local -> [ "/"; "/data" ]
            in
            Spans.wrap_ctx o.spans ~parent:o.parent ~mount_points (T.ctx tb)
      in
      let tree = step "Andrew.setup" (fun () -> Workload.Andrew.setup ctx c.andrew) in
      step "Testbed.drain" (fun () -> T.drain tb ~horizon:65.0);
      let before = T.rpc_counts tb in
      let phases = step "Andrew.run" (fun () -> Workload.Andrew.run ctx c.andrew tree) in
      (phases, Stats.Counter.diff (T.rpc_counts tb) before, Sim.Engine.events_executed engine))

let andrew_report (p : Workload.Andrew.phase_times) counts =
  Printf.sprintf "makedir=%s copy=%s scandir=%s readall=%s make=%s%s" (g p.makedir)
    (g p.copy) (g p.scandir) (g p.readall) (g p.make) (counts_report counts)

let andrew_unit (c : Campaign.config) =
  {
    label = Printf.sprintf "%s/tree%Ld" c.name c.andrew.tree.seed;
    protocol = c.name;
    key = Int64.to_string c.andrew.tree.seed;
    clients = 1;
    seed = c.andrew.tree.seed;
    run =
      (fun obs ->
        let phases, counts, events = andrew_once ?obs c in
        {
          report = andrew_report phases counts;
          rpcs = Some (counts_total counts);
          events = Some events;
          verdict_ok = true;
          sim_total = Workload.Andrew.total phases;
          write_rpcs = count counts Nfs.Wire.p_write;
        });
  }

(* Thirteen tree seeds per config, drawn from the workload seed: 104
   units, so the 90th percentile has ten units beyond it. *)
let andrew_seeds = 13

let andrew_configs seed =
  List.concat_map
    (fun i ->
      let tree_seed = Int64.(add (mul seed 1000L) (of_int i)) in
      List.map
        (fun (c : Campaign.config) ->
          { c with andrew = { c.andrew with tree = { c.andrew.tree with seed = tree_seed } } })
        (Campaign.default ()))
    (List.init andrew_seeds (fun i -> i + 1))

(* Phases and event count of our spelled-out run against the library's
   own Campaign.run_one, for one config. *)
let andrew_matches_campaign (c : Campaign.config) =
  let phases, _, events = andrew_once c in
  let r = Campaign.run_one c in
  phases = r.phases && events = r.events

(* ---- sort ---- *)

let sort_protocols =
  [
    ("local", T.Local);
    ("nfs", T.Nfs_proto Nfs.Nfs_client.default_config);
    ("snfs", T.Snfs_proto Snfs.Snfs_client.default_config);
    ("rfs", T.Rfs_proto Rfs.Rfs_client.default_config);
    ("kent", T.Kent_proto Kentfs.Kent_client.default_config);
  ]

(* Ten sizes in steps of a tenth of 2816 kB, so they include Table 5-3's
   1408 and 2816 kB (and 282 for its 281); Tables 5-4 to 5-6 turn
   /etc/update off. A hundred units, so the 90th percentile has ten
   units beyond it. Sort_exp.run_sort takes no seed: the same units run
   for every seed. *)
let sort_sizes = List.init 10 (fun i -> ((i + 1) * 2816 + 5) / 10)

let sort_unit ~seed ~name ~protocol ~update ~input_kb =
  let key =
    Printf.sprintf "%dkB/%s" input_kb
      (match update with Some _ -> "update" | None -> "noupdate")
  in
  let label = name ^ "/" ^ key in
  {
    label;
    protocol = name;
    key;
    clients = 1;
    seed;
    run =
      (fun obs ->
        let r =
          Experiments.Sort_exp.run_sort ?trace:(trace_of obs) ?metrics:(metrics_of obs)
            ~protocol ~update ~input_kb ~label ()
        in
        {
          report =
            Printf.sprintf "elapsed=%s temp=%d busy=%s%s" (g r.elapsed) r.temp_bytes
              (g r.client_busy) (counts_report r.counts);
          rpcs = Some (counts_total r.counts);
          events = None;
          verdict_ok = true;
          sim_total = r.elapsed;
          write_rpcs = count r.counts Nfs.Wire.p_write;
        });
  }

let sort_units seed =
  List.concat_map
    (fun input_kb ->
      List.concat_map
        (fun (name, protocol) ->
          List.map
            (fun update -> sort_unit ~seed ~name ~protocol ~update ~input_kb)
            [ Some 30.0; None ])
        sort_protocols)
    sort_sizes

(* ---- scaling ---- *)

(* Scaling_exp.run takes no seed: the same units run for every seed. *)
let scaling_units seed =
  List.concat_map
    (fun (name, protocol) ->
      List.map
        (fun clients ->
          {
            label = Printf.sprintf "%s/%d" name clients;
            protocol = name;
            key = string_of_int clients;
            clients;
            seed;
            run =
              (fun obs ->
                let p =
                  installed obs (fun () ->
                      Experiments.Scaling_exp.run ~protocol ~clients ~iterations:2 ())
                in
                {
                  report =
                    Printf.sprintf "avg=%s max=%s cpu=%s disk=%s rpcs=%d"
                      (g p.avg_elapsed) (g p.max_elapsed) (g p.server_cpu_util)
                      (g p.server_disk_util) p.total_rpcs;
                  rpcs = Some p.total_rpcs;
                  events = None;
                  verdict_ok = true;
                  sim_total = p.avg_elapsed;
                  write_rpcs = 0;
                });
          })
        [ 16; 64; 256 ])
    [
      ("nfs", T.Nfs_proto Nfs.Nfs_client.default_config);
      ("snfs", T.Snfs_proto Snfs.Snfs_client.default_config);
    ]

(* ---- crash ---- *)

(* Seeds 1..60 on every protocol, whatever the workload seed: the range
   keeps the seeds known to fail (3, 8, 9 and 43) in view. The verdict does not carry an RPC count, so [rpcs] comes
   from a counting run. *)
let crash_units () =
  List.concat_map
    (fun protocol ->
      List.map
        (fun s ->
          let seed = Int64.of_int s in
          {
            label = Printf.sprintf "%s/seed%d" (Experiments.Crash_exp.protocol_name protocol) s;
            protocol = Experiments.Crash_exp.protocol_name protocol;
            key = string_of_int s;
            clients = 5;
            seed;
            run =
              (fun obs ->
                let v =
                  Experiments.Crash_exp.run ?trace:(trace_of obs) ?metrics:(metrics_of obs)
                    ~protocol ~seed ()
                in
                {
                  report =
                    Printf.sprintf "checked=%d divergent=%d lost=%d andrew=%s resumed=%b ok=%b"
                      v.files_checked v.divergent v.lost_files (g v.andrew_total)
                      v.courtesy_resumed v.ok;
                  rpcs = None;
                  events = None;
                  verdict_ok = v.ok;
                  sim_total = v.andrew_total;
                  write_rpcs = 0;
                });
          })
        (List.init 60 (fun i -> i + 1)))
    Experiments.Crash_exp.all_protocols

let names = [ "andrew"; "sort"; "scaling"; "crash" ]

let make workload seed =
  match workload with
  | "andrew" -> List.map andrew_unit (andrew_configs seed)
  | "sort" -> sort_units seed
  | "scaling" -> scaling_units seed
  | "crash" -> crash_units ()
  | w -> invalid_arg ("unknown workload " ^ w)
