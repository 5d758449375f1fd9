(* The repository benchmark: host cost of the simulator on four
   workloads (andrew, sort, scaling, crash).

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--spec BENCHMARK.json] [--spans-out FILE]

   With --trace 0 it sets up, runs the workload's fixed list of units
   back to back for S seconds in passes, one domain, tracing off, and
   reports the end-to-end metrics. With --trace 1 it adds a traced pass
   (the library tracer and metrics registry installed, plus the
   benchmark's own spans), times each layer in isolation, and reports
   the per-layer metrics. Either way it checks the simulated outputs,
   prints a human-readable report, and ends with one JSON line holding
   the metrics BENCHMARK.json declares. *)

let process_start = Spans.host_s ()

module Arith = Perfbench.Arith
module Spec = Perfbench.Spec

let ms x = x *. 1e3

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let traced = ref 0
let spec_path = ref "BENCHMARK.json"
let spans_out = ref ""

let args =
  [
    ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " Units.names);
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S how long the timed passes run");
    ("--trace", Arg.Set_int traced, "0|1 end-to-end (0) or per-layer (1) run");
    ("--spec", Arg.Set_string spec_path, "FILE the benchmark declaration");
    ("--spans-out", Arg.Set_string spans_out, "FILE where the traced run's spans go");
  ]

(* ---- running units ---- *)

type result =
  | Done of Units.outcome
  | Failed of string * Units.outcome option  (** why; the outcome if one came back *)

type timed = { unit_ : Units.unit_; result : result; host_s : float }

let run_unit ?obs (u : Units.unit_) =
  let t0 = Spans.host_s () in
  let result =
    match u.run obs with
    | o when o.verdict_ok -> Done o
    | o -> Failed ("verdict failed", Some o)
    | exception e -> Failed (Printexc.to_string e, None)
  in
  { unit_ = u; result; host_s = Spans.host_s () -. t0 }

(* What must repeat exactly when a unit is run again: the simulated
   report, which holds the RPC counts, and with [events] the engine's
   event count (a traced run adds the metrics sampler's events). *)
let signature ~events = function
  | Done o ->
      o.report
      ^ (match o.events with Some n when events -> Printf.sprintf " events=%d" n | _ -> "")
  | Failed (why, o) ->
      "FAILED " ^ why ^ Option.fold ~none:"" ~some:(fun (o : Units.outcome) -> " " ^ o.report) o

type pass = { runs : timed list; pass_s : float; minor_words : float; gc : Gc.stat * Gc.stat }

let run_pass units =
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Spans.host_s () in
  let runs = List.map (fun u -> run_unit u) units in
  let pass_s = Spans.host_s () -. t0 in
  { runs; pass_s; minor_words = Gc.minor_words () -. w0; gc = (gc0, Gc.quick_stat ()) }

(* ---- checks ---- *)

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let check_repeat ~what ~events first again =
  List.iter2
    (fun a b ->
      let sa = signature ~events a.result and sb = signature ~events b.result in
      if sa <> sb then problem "%s: unit %s differs: %S vs %S" what a.unit_.label sa sb)
    first again

let outcome_of t = match t.result with Done o -> Some o | Failed _ -> None

(* The paper's shape, on each key (tree seed for andrew; size and
   /etc/update setting for sort): SNFS below NFS. *)
let check_shape workload (runs : timed list) =
  let by protocol =
    List.filter_map
      (fun t ->
        if t.unit_.protocol = protocol then
          Option.map (fun o -> (t.unit_.key, o)) (outcome_of t)
        else None)
      runs
  in
  let snfs = by "snfs" in
  let pairs =
    List.filter_map
      (fun (k, nfs) -> Option.map (fun s -> (k, nfs, s)) (List.assoc_opt k snfs))
      (by "nfs")
  in
  let expect what (k, (nfs : Units.outcome), (snfs : Units.outcome)) =
    match what with
    | `Total ->
        if not (snfs.sim_total < nfs.sim_total) then
          problem "%s %s: SNFS total %.2f s not below NFS %.2f s" workload k
            snfs.sim_total nfs.sim_total
    | `Rpcs ->
        if not (snfs.rpcs < nfs.rpcs) then
          problem "%s %s: SNFS RPCs not below NFS" workload k
    | `Writes ->
        if not (snfs.write_rpcs < nfs.write_rpcs) then
          problem "%s %s: SNFS write RPCs %d not below NFS %d" workload k
            snfs.write_rpcs nfs.write_rpcs
  in
  let require whats =
    if pairs = [] then problem "%s: no NFS/SNFS pair completed" workload;
    List.iter (fun p -> List.iter (fun w -> expect w p) whats) pairs
  in
  match workload with
  | "andrew" -> require [ `Total; `Rpcs ]
  | "sort" -> require [ `Writes ]
  | _ -> ()

(* ---- reading the metrics registry ---- *)

(* Sum of every series of each metric name in a Prometheus export
   (summaries contribute their _sum and _count lines under those
   names). *)
let registry_sums m =
  let sums = Hashtbl.create 64 in
  String.split_on_char '\n' (Obs.Metrics.to_prometheus m)
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> ()
           | Some sp ->
               let key = String.sub line 0 sp in
               let name =
                 match String.index_opt key '{' with
                 | Some b -> String.sub key 0 b
                 | None -> key
               in
               let v = float_of_string (String.sub line (sp + 1) (String.length line - sp - 1)) in
               let old = Option.value ~default:0.0 (Hashtbl.find_opt sums name) in
               Hashtbl.replace sums name (old +. v));
  sums

let sum_of sums name = Option.value ~default:0.0 (Hashtbl.find_opt sums name)

(* ---- the traced pass ---- *)

type traced = {
  t_runs : timed list;
  t_host_s : float;  (** unit run time only, export and analysis excluded *)
  counts : (string, float) Hashtbl.t;  (** registry sums over all units *)
  rpcs_by_label : (string * int) list;
  trace_spans : int;
  queue_wait_s : float;
  path : (string * float) list;  (** critical-path sums over analyzed units *)
  own : Spans.t;
}

(* Every unit runs traced. The [analyzed] ones also get a span per VFS
   call and the critical-path analysis, which exports the whole trace
   and parses it again: doing that for every unit would hold hundreds
   of megabytes. *)
let traced_pass ~analyzed units =
  let own = Spans.create () in
  let counts = Hashtbl.create 64 in
  let add_counts sums =
    Hashtbl.iter
      (fun k v ->
        Hashtbl.replace counts k (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts k)))
      sums
  in
  let host = ref 0.0 and spans = ref 0 and queue = ref 0.0 in
  let path = Array.make 7 0.0 in
  let rpcs = ref [] in
  let runs =
    List.map
      (fun (u : Units.unit_) ->
        let trace = Obs.Trace.create () in
        let metrics = Obs.Metrics.create () in
        let t =
          Spans.within own ~parent:0 ~name:("unit " ^ u.label) ~sim:(fun () -> 0.0)
            (fun parent ->
              let vfs_spans = List.memq u analyzed in
              run_unit ~obs:{ Units.trace; metrics; spans = own; parent; vfs_spans } u)
        in
        host := !host +. t.host_s;
        let sums = registry_sums metrics in
        add_counts sums;
        rpcs := (u.label, int_of_float (sum_of sums "rpc_server_calls_total")) :: !rpcs;
        List.iter
          (fun (e : Obs.Trace.event) ->
            if e.kind = Obs.Trace.Begin then incr spans;
            match List.assoc_opt "queued" e.args with
            | Some (Obs.Trace.Float q) -> queue := !queue +. q
            | _ -> ())
          (Obs.Trace.events trace);
        (match t.result with
        | Done _ when List.memq u analyzed ->
            let run = Obs.Analyze.of_chrome ~label:u.label (Obs.Chrome.to_string trace) in
            List.iter
              (fun (o : Obs.Analyze.op_stat) ->
                List.iteri
                  (fun i v -> path.(i) <- path.(i) +. v)
                  [ o.client; o.network; o.queue; o.server; o.disk; o.consist;
                    float_of_int o.fanout ])
              run.ops
        | Done _ | Failed _ -> ());
        t)
      units
  in
  {
    t_runs = runs;
    t_host_s = !host;
    counts;
    rpcs_by_label = !rpcs;
    trace_spans = !spans;
    queue_wait_s = !queue;
    path =
      List.combine
        [ "path.client_s"; "path.network_s"; "path.queue_s"; "path.server_s";
          "path.disk_s"; "path.consist_s"; "path.fanout" ]
        (Array.to_list path);
    own;
  }

(* Server RPCs per unit for the units whose result does not carry them
   (crash), from one counting pass with a registry installed. *)
let count_rpcs units =
  List.map
    (fun (u : Units.unit_) ->
      let metrics = Obs.Metrics.create () in
      (try ignore (Obs.Metrics.with_metrics metrics (fun () -> u.run None)) with _ -> ());
      (u.label, int_of_float (sum_of (registry_sums metrics) "rpc_server_calls_total")))
    units

(* ---- per-layer metrics (traced run) ---- *)

let per_layer ~workload ~units ~passes tp =
  let sum = sum_of tp.counts in
  let untraced_s = Arith.median (List.map (fun p -> p.pass_s) passes) in
  let per_pass f = Arith.median (List.map f passes) in
  let gc f = per_pass (fun p -> let a, b = p.gc in float_of_int (f b - f a)) in
  let events = sum "sim_events_total" in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let dispatch = Layers.dispatch () in
  let xdr = Layers.xdr () in
  let hit, miss = Layers.cache () in
  let transition = Layers.state_transition () in
  let null = Layers.null_call () in
  let localfs = Layers.localfs_op () in
  let rpc_calls = sum "rpc_server_calls_total" in
  let hits = sum "cache_hits_total" and misses = sum "cache_misses_total" in
  let transitions = sum "snfs_state_transitions_total" in
  let sweep_speedup =
    let jobs = min 2 (Domain.recommended_domain_count ()) in
    let time jobs =
      let t0 = Spans.host_s () in
      ignore (Experiments.Sweep.map ~jobs ~f:(fun u -> (run_unit u).result) units);
      Spans.host_s () -. t0
    in
    let seq = time 1 in
    ratio seq (time jobs)
  in
  (* host ms per untraced pass: isolated per-call cost times count *)
  let shares =
    [
      ("sim", events *. dispatch.ns);
      ("netsim", rpc_calls *. Float.max 0.0 (null.ns -. (null.events *. dispatch.ns)));
      ("xdr", rpc_calls *. 2.0 *. xdr.ns);
      ("blockcache", (hits *. hit.ns) +. (misses *. miss.ns));
      ("core", transitions *. transition.ns);
    ]
    |> List.map (fun (k, ns) -> (k, ns /. 1e6))
  in
  let untraced_ms = ms untraced_s in
  let unattributed = untraced_ms -. List.fold_left (fun a (_, v) -> a +. v) 0.0 shares in
  Printf.printf "layer shares of one untraced pass (%.1f ms), isolated cost x count:\n" untraced_ms;
  List.iter (fun (k, v) -> Printf.printf "  %-12s %10.2f ms\n" k v) shares;
  Printf.printf "  %-12s %10.2f ms\n" "unattributed" unattributed;
  let vfs =
    List.concat_map
      (fun op ->
        let s = Spans.summarize tp.own op in
        [
          ("vfs.ops." ^ op, float_of_int s.calls);
          ("vfs.op_host_us." ^ op, s.host_us);
          ("vfs.op_sim_ms." ^ op, s.sim_ms);
          ("vfs.op_words." ^ op, s.words);
        ])
      Spans.vfs_ops
  in
  if workload <> "andrew" then
    Printf.printf "  (vfs.* spans wrap the andrew testbed's mounts; other workloads read 0)\n"
  else Printf.printf "  (vfs.* over the first unit of each config)\n";
  List.map (fun (k, v) -> ("share_ms." ^ k, v)) shares
  @ [
    ("sim.events", events);
    ("sim.words_per_event", ratio (per_pass (fun p -> p.minor_words)) events);
    ("sim.ns_per_event", ratio (untraced_s *. 1e9) events);
    ("sim.dispatch_ns", dispatch.ns);
    ("rpc.calls", rpc_calls);
    ("rpc.retransmissions", sum "rpc_retransmits_total");
    ("rpc.dup_hits", sum "rpc_duplicates_total");
    ("rpc.queue_wait_s", tp.queue_wait_s);
    ("rpc.null_call_us", null.ns /. 1e3);
    ("net.messages", sum "net_messages_total");
    ("net.bytes", sum "net_bytes_total");
    ("xdr.roundtrip_ns", xdr.ns);
    ("xdr.words_per_roundtrip", xdr.words);
    ("cache.hit_ratio", ratio hits (hits +. misses));
    ("cache.writebacks", sum "cache_writebacks_total");
    ("cache.writes_averted", sum "cache_writes_averted_total");
    ("cache.evictions", sum "cache_evictions_total");
    ("cache.hit_ns", hit.ns);
    ("cache.miss_ns", miss.ns);
    ("disk.ops", sum "disk_reads_total" +. sum "disk_writes_total");
    ("disk.bytes", sum "disk_bytes_read_total" +. sum "disk_bytes_written_total");
    ("disk.busy_s", sum "disk_io_seconds_sum");
    ("localfs.op_ns", localfs.ns);
  ]
  @ vfs
  @ [
      ("core.state_transitions", transitions);
      ("core.transition_ns", transition.ns);
      ("snfs.callbacks_sent", sum "snfs_callbacks_sent_total");
      ("snfs.callbacks_failed", sum "snfs_callbacks_failed_total");
      ("snfs.cache_mode_transitions", sum "snfs_cache_mode_transitions_total");
      ("snfs.clients_reaped", sum "snfs_clients_reaped_total");
      ("obs.trace_overhead", ratio tp.t_host_s untraced_s -. 1.0);
      ("obs.spans", float_of_int tp.trace_spans);
      ("obs.incr_off_ns", (Layers.metrics_incr ~on:false).ns);
      ("obs.incr_on_ns", (Layers.metrics_incr ~on:true).ns);
      ("obs.span_off_ns", (Layers.trace_span ~on:false).ns);
      ("obs.span_on_ns", (Layers.trace_span ~on:true).ns);
    ]
  @ tp.path
  @ [
      ("sweep.speedup", sweep_speedup);
      ("gc.minor_collections", gc (fun s -> s.Gc.minor_collections));
      ("gc.major_collections", gc (fun s -> s.Gc.major_collections));
      ("gc.promoted_words", per_pass (fun p -> let a, b = p.gc in b.Gc.promoted_words -. a.Gc.promoted_words));
      ("unattributed_ms", unattributed);
    ]

(* ---- the run ---- *)

let setup_reps = 9

(* The first unit of each protocol, in list order. *)
let firsts units =
  List.rev
    (List.fold_left
       (fun acc (u : Units.unit_) ->
         if List.exists (fun (v : Units.unit_) -> v.protocol = u.protocol) acc then acc
         else u :: acc)
       [] units)

(* One set-up: the unit list from the seed, and one untimed run of the
   first unit of each protocol, so code, caches and the heap are warm
   before the first timed unit. *)
let set_up workload seed =
  let units = Units.make workload seed in
  List.iter (fun u -> ignore (run_unit u)) (firsts units);
  units

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let () =
  Arg.parse (Arg.align args)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Units.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " Units.names);
    exit 2
  end;
  if !traced <> 0 && !traced <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  let spec =
    try
      let s = Spec.read !spec_path in
      Spec.validate s;
      s
    with
    | Sys_error e ->
        prerr_endline ("perfbench: " ^ e);
        exit 2
    | Spec.Invalid e ->
        prerr_endline ("perfbench: " ^ !spec_path ^ ": " ^ e);
        exit 2
  in
  let workload = !workload and seed = Int64.of_int !seed in
  (* set-up, several times; the first one also pays process start *)
  let setups, units =
    let rec go i acc =
      let t0 = if i = 0 then process_start else Spans.host_s () in
      let units = set_up workload seed in
      let acc = (Spans.host_s () -. t0) :: acc in
      if i + 1 < setup_reps then go (i + 1) acc else (acc, units)
    in
    go 0 []
  in
  (* timed passes, at least two so every unit is seen to repeat *)
  let t_start = Spans.host_s () in
  let rec passes acc =
    let acc = run_pass units :: acc in
    if List.length acc >= 2 && Spans.host_s () -. t_start >= !seconds then List.rev acc
    else passes acc
  in
  let passes = passes [] in
  let heap_peak = heap_peak_mb () in
  let first = List.hd passes in
  List.iteri
    (fun i p -> check_repeat ~what:(Printf.sprintf "pass %d vs pass 1" (i + 2)) ~events:true first.runs
        p.runs)
    (List.tl passes);
  check_shape workload first.runs;
  if workload = "andrew" then
    List.iter
      (fun c ->
        if not (Units.andrew_matches_campaign c) then
          problem "andrew %s: differs from Campaign.run_one" c.Experiments.Campaign.name)
      (List.filteri (fun i _ -> i < 8) (Units.andrew_configs seed));
  let traced_pass = if !traced = 1 then Some (traced_pass ~analyzed:(firsts units) units) else None in
  (match traced_pass with
  | Some tp -> check_repeat ~what:"traced vs untraced" ~events:false first.runs tp.t_runs
  | None -> ());
  let rpcs_of =
    if List.for_all (fun t -> match t.result with Done { rpcs = None; _ } -> false | _ -> true) first.runs
    then fun t -> match t.result with Done { rpcs = Some n; _ } -> n | _ -> 0
    else
      let table =
        match traced_pass with Some tp -> tp.rpcs_by_label | None -> count_rpcs units
      in
      fun t -> List.assoc t.unit_.label table
  in
  (* ---- end-to-end metrics ----

     A unit's time is its best over the run's passes. On a shared
     2-vCPU virtual machine the CPU speed drifts by up to 2x over tens
     of seconds, so a pass or a single run of a unit reads whatever the
     host gave it; the best of thirty-odd runs of a deterministic unit
     is its cost when nothing interferes. There, over six runs of the
     sort workload, the median pass time spread 14% (interquartile over
     median) where the sum of per-unit bests spread 1%. The median pass
     is still printed. *)
  let all_runs = List.concat_map (fun p -> p.runs) passes in
  let attempted = List.length all_runs in
  let failed = List.length (List.filter (fun t -> outcome_of t = None) all_runs) in
  let columns =
    List.fold_right
      (fun p cols -> List.map2 (fun t col -> t :: col) p.runs cols)
      passes
      (List.map (fun _ -> []) first.runs)
  in
  (* (first run, best seconds) of every unit that completed every time *)
  let best =
    List.filter_map
      (fun col ->
        if List.for_all (fun t -> outcome_of t <> None) col then
          Some (List.hd col, List.fold_left (fun m t -> Float.min m t.host_s) infinity col)
        else None)
      columns
  in
  let best_ms = List.map (fun (_, s) -> ms s) best in
  let per_rpc_us units =
    Arith.pooled (List.map (fun (t, s) -> (s *. 1e6, float_of_int (rpcs_of t))) units)
  in
  let pass_s = List.map (fun p -> p.pass_s) passes in
  let or_zero = Option.value ~default:0.0 in
  let e2e =
    [
      ("wall_s", List.fold_left (fun a (_, s) -> a +. s) 0.0 best);
      ("unit_ms_p50", if best = [] then 0.0 else Arith.median best_ms);
      ("unit_ms_p90", if best = [] then 0.0 else Arith.percentile 90.0 best_ms);
      ("host_us_per_rpc", or_zero (per_rpc_us best));
      ("alloc_mwords", Arith.median (List.map (fun p -> p.minor_words /. 1e6) passes));
      ("heap_peak_mb", heap_peak);
      ("fail_share", Arith.fail_share ~failed ~attempted);
      ("setup_s", Arith.median setups);
    ]
  in
  Printf.printf "perfbench %s: seed %Ld, %d units, %d passes in %.1f s, tracing %s\n"
    workload seed (List.length units) (List.length passes)
    (List.fold_left ( +. ) 0.0 pass_s)
    (if !traced = 1 then "on for one extra pass" else "off");
  Printf.printf "end to end (one domain, one process, tracing off; a unit's time is its best):\n";
  let unit_of name =
    match List.find_opt (fun (m : Spec.metric) -> m.name = name) (spec.end_to_end @ spec.per_layer) with
    | Some m -> m.unit_
    | None -> if name = "fail_share" then "share" else ""
  in
  List.iter (fun (k, v) -> Printf.printf "  %-16s %14.6g %s\n" k v (unit_of k)) e2e;
  Printf.printf "  passes: median %.4f s, fastest %.4f s, slowest %.4f s\n" (Arith.median pass_s)
    (Arith.percentile 0.0 pass_s) (Arith.percentile 100.0 pass_s);
  Printf.printf "  units attempted %d, failed %d; %d units timed" attempted failed (List.length best);
  (match Arith.tail_percentile ~n:(List.length best) with
  | Some p ->
      Printf.printf ", p%g = %.3f ms is the highest percentile with ten units beyond\n" p
        (Arith.percentile p best_ms)
  | None -> Printf.printf ", too few for a tail percentile\n");
  (* per-unit breakdown *)
  if workload = "scaling" || workload = "crash" then begin
    Printf.printf "per protocol and client count:\n";
    let groups =
      List.sort_uniq compare (List.map (fun t -> (t.unit_.protocol, t.unit_.clients)) first.runs)
    in
    List.iter
      (fun (proto, clients) ->
        let mine (t : timed) = t.unit_.protocol = proto && t.unit_.clients = clients in
        let fails = List.filter (fun t -> mine t && outcome_of t = None) all_runs in
        Printf.printf "  %-6s clients %4d  host us/RPC %s  failed %d of %d\n" proto clients
          (match per_rpc_us (List.filter (fun (t, _) -> mine t) best) with
          | Some u -> Printf.sprintf "%8.2f" u
          | None -> "       -")
          (List.length fails)
          (List.length (List.filter mine all_runs)))
      groups
  end;
  let failures = List.filter (fun t -> outcome_of t = None) first.runs in
  if failures <> [] then begin
    Printf.printf "failed units (first pass, %d):\n" (List.length failures);
    List.iter
      (fun t ->
        match t.result with
        | Failed (why, _) ->
            Printf.printf "  seed %Ld protocol %s clients %d: %s\n" t.unit_.seed t.unit_.protocol
              t.unit_.clients why
        | Done _ -> ())
      failures
  end;
  let values, declared =
    match traced_pass with
    | None -> (e2e, spec.end_to_end)
    | Some tp -> (per_layer ~workload ~units ~passes tp, spec.per_layer)
  in
  (match (traced_pass, !spans_out) with
  | Some tp, file when file <> "" ->
      let oc = open_out_bin file in
      output_string oc (Spans.to_json tp.own);
      close_out oc;
      Printf.printf "spans written to %s\n" file
  | _ -> ());
  let correct = !problems = [] in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
  Printf.printf "checks: %s\n" (if correct then "all passed" else "FAILED");
  print_endline
    (Spec.result_line ~correct ~attempted ~failed declared
       (List.filter (fun (k, _) -> List.exists (fun (m : Spec.metric) -> m.name = k) declared) values))
