(* Macro-benchmark harness for the perf trajectory.

   Measures whole Andrew runs (simulation events executed and host
   wall-clock seconds) for each protocol stack, plus the standard
   campaign swept sequentially and in parallel, and records the result
   as an append-only BENCH_<n>.json point at the repo root (see
   Experiments.Perf for the format). `--compare OLD.json` turns the run
   into a regression gate for CI: every bench must execute exactly the
   events it did at OLD (events are deterministic), and none may lose
   more than --max-drop of its events/sec (wall clock, so noisy).

   Unlike bench/main.ml (Bechamel micro-benchmarks of single
   operations), this harness measures the end-to-end number the paper's
   experiments actually pay for: host seconds per simulated Andrew
   run. *)

module Perf = Experiments.Perf
module Campaign = Experiments.Campaign

let now () =
  (* snfs-lint: allow determinism — wall-clock measurement is this binary's purpose *)
  Unix.gettimeofday ()

(* one Andrew run per protocol under test; names are part of the BENCH
   schema, so comparisons across points match on them *)
let macro_benches =
  [
    ("andrew_nfs", Experiments.Testbed.Nfs_proto Nfs.Nfs_client.default_config);
    ( "andrew_snfs",
      Experiments.Testbed.Snfs_proto Snfs.Snfs_client.default_config );
    ("andrew_rfs", Experiments.Testbed.Rfs_proto Rfs.Rfs_client.default_config);
    ( "andrew_kent",
      Experiments.Testbed.Kent_proto Kentfs.Kent_client.default_config );
  ]

let run_macro ~repeats (name, protocol) =
  let config = Campaign.seeded ~protocol ~name ~seed:1L () in
  (* unmeasured warm-up: the first run pays code-page and allocator
     warm-up costs that would dominate a single-repeat --quick point *)
  ignore (Campaign.run_one config : Campaign.run);
  let best = ref infinity in
  let events = ref 0 in
  for _ = 1 to repeats do
    let t0 = now () in
    let r = Campaign.run_one config in
    let dt = now () -. t0 in
    if dt < !best then best := dt;
    if !events <> 0 && r.Campaign.events <> !events then
      failwith (name ^ ": simulation event count varied across repeats");
    events := r.Campaign.events
  done;
  { Perf.name; events = !events; host_seconds = !best }

let run_campaign ~repeats ~jobs =
  let configs = Campaign.default () in
  let time_once jobs =
    let t0 = now () in
    ignore (Campaign.run ~jobs configs);
    now () -. t0
  in
  let best f =
    let m = ref infinity in
    for _ = 1 to repeats do
      let dt = f () in
      if dt < !m then m := dt
    done;
    !m
  in
  {
    Perf.configs = List.length configs;
    jobs;
    seq_seconds = best (fun () -> time_once 1);
    par_seconds = best (fun () -> time_once jobs);
  }

let compare_points ~against ~max_drop point =
  let ic = open_in against in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  let before =
    try Perf.of_json contents
    with Perf.Malformed msg ->
      Printf.eprintf "perf: cannot parse %s: %s\n" against msg;
      exit 1
  in
  let regs = Perf.regressions ~before ~after:point ~max_drop in
  let mismatches = Perf.event_mismatches ~before ~after:point in
  List.iter
    (fun r ->
      Printf.eprintf
        "perf: REGRESSION %s: %.0f -> %.0f events/sec (-%.1f%%, limit %.0f%%)\n"
        r.Perf.bench r.Perf.before_eps r.Perf.after_eps (r.Perf.drop *. 100.0)
        (max_drop *. 100.0))
    regs;
  List.iter
    (fun (m : Perf.event_mismatch) ->
      Printf.eprintf "perf: EVENTS CHANGED %s: %d -> %d (must match exactly)\n"
        m.name m.before_events m.after_events)
    mismatches;
  if regs <> [] || mismatches <> [] then exit 1;
  Printf.printf
    "comparison vs %s (point %d, %S): ok, event counts identical, no bench \
     dropped more than %.0f%%\n"
    against before.Perf.point before.Perf.label (max_drop *. 100.0)

let () =
  let quick = ref false in
  let label = ref "" in
  let dir = ref "." in
  let out = ref "" in
  let jobs = ref 2 in
  let no_campaign = ref false in
  let compare_file = ref "" in
  let max_drop_pct = ref 20.0 in
  let spec =
    [
      ("--quick", Arg.Set quick, " one repeat per bench instead of three");
      ("--label", Arg.Set_string label, "STR label recorded in the point");
      ( "--dir",
        Arg.Set_string dir,
        "DIR directory holding BENCH_<n>.json files (default .)" );
      ( "--out",
        Arg.Set_string out,
        "FILE explicit output path (default DIR/BENCH_<next>.json)" );
      ( "--jobs",
        Arg.Set_int jobs,
        "N domains for the parallel campaign sweep (default 2)" );
      ("--no-campaign", Arg.Set no_campaign, " skip the campaign sweep");
      ( "--compare",
        Arg.Set_string compare_file,
        "FILE fail if any bench's event count differs from this point, or \
         its events/sec drops more than --max-drop" );
      ( "--max-drop",
        Arg.Set_float max_drop_pct,
        "PCT allowed events/sec drop for --compare (default 20)" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf [options]: record a BENCH_<n>.json perf-trajectory point";
  let repeats = if !quick then 1 else 3 in
  let results = List.map (run_macro ~repeats) macro_benches in
  List.iter
    (fun (r : Perf.result) ->
      Printf.printf "%-12s %9d events  %8.3f s  %12.0f events/sec\n"
        r.Perf.name r.Perf.events r.Perf.host_seconds (Perf.events_per_sec r))
    results;
  let campaign =
    if !no_campaign then None
    else begin
      let c = run_campaign ~repeats ~jobs:!jobs in
      Printf.printf
        "campaign     %d configs  jobs=1 %.3f s  jobs=%d %.3f s  speedup \
         %.2fx\n"
        c.Perf.configs c.Perf.seq_seconds c.Perf.jobs c.Perf.par_seconds
        (Perf.speedup c);
      Some c
    end
  in
  let index = Perf.next_index ~exists:(fun f -> Sys.file_exists (Filename.concat !dir f)) in
  let point =
    {
      Perf.schema_version = Perf.current_schema;
      point = index;
      label = !label;
      quick = !quick;
      results;
      campaign;
    }
  in
  let path =
    if !out <> "" then !out else Filename.concat !dir (Perf.filename index)
  in
  (match Perf.write ~path point with
  | Ok () -> Printf.printf "wrote %s (point %d)\n" path index
  | Error msg ->
      Printf.eprintf "perf: %s\n" msg;
      exit 1);
  if !compare_file <> "" then
    compare_points ~against:!compare_file ~max_drop:(!max_drop_pct /. 100.0)
      point
