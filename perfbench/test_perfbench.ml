(* The benchmark's own arithmetic and its BENCHMARK.json handling. *)

open Perfbench

let close = Alcotest.(check (float 1e-9))
let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_percentile () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  close "median odd" 3.0 (Arith.median xs);
  close "median even" 2.5 (Arith.median [ 4.0; 1.0; 2.0; 3.0 ]);
  close "p0 is the minimum" 1.0 (Arith.percentile 0.0 xs);
  close "p100 is the maximum" 5.0 (Arith.percentile 100.0 xs);
  close "p90 interpolates" 4.6 (Arith.percentile 90.0 xs);
  close "one sample" 7.0 (Arith.percentile 90.0 [ 7.0 ]);
  Alcotest.(check bool) "no samples" true (raises_invalid (fun () -> Arith.median []));
  Alcotest.(check bool) "p out of range" true (raises_invalid (fun () -> Arith.percentile 101.0 xs))

let test_ten_beyond () =
  let tail n = Arith.tail_percentile ~n in
  Alcotest.(check int) "100 samples leave 10 beyond p90" 10 (Arith.beyond ~n:100 90.0);
  Alcotest.(check int) "99 samples leave 9 beyond p90" 9 (Arith.beyond ~n:99 90.0);
  Alcotest.(check (option (float 0.0))) "n=19" None (tail 19);
  Alcotest.(check (option (float 0.0))) "n=20" (Some 50.0) (tail 20);
  Alcotest.(check (option (float 0.0))) "n=99" (Some 50.0) (tail 99);
  Alcotest.(check (option (float 0.0))) "n=100" (Some 90.0) (tail 100);
  Alcotest.(check (option (float 0.0))) "n=999" (Some 90.0) (tail 999);
  Alcotest.(check (option (float 0.0))) "n=1000" (Some 99.0) (tail 1000);
  Alcotest.(check (option (float 0.0))) "n=10000" (Some 99.9) (tail 10000)

let test_fail_share () =
  close "crash today" (50.0 /. 240.0) (Arith.fail_share ~failed:50 ~attempted:240);
  close "none failed" 0.0 (Arith.fail_share ~failed:0 ~attempted:96);
  Alcotest.(check bool) "nothing attempted" true
    (raises_invalid (fun () -> Arith.fail_share ~failed:0 ~attempted:0));
  Alcotest.(check bool) "more failed than attempted" true
    (raises_invalid (fun () -> Arith.fail_share ~failed:3 ~attempted:2))

let test_pooled () =
  (* 10 us over 2 RPCs and 30 us over 6: 40 / 8, not the mean of 5 and 5 *)
  Alcotest.(check (option (float 1e-9))) "sum over sum" (Some 5.0)
    (Arith.pooled [ (10.0, 2.0); (30.0, 6.0) ]);
  Alcotest.(check (option (float 1e-9))) "weights by denominator" (Some 3.5)
    (Arith.pooled [ (1.0, 1.0); (34.0, 9.0) ]);
  Alcotest.(check (option (float 1e-9))) "units without RPCs add nothing" (Some 5.0)
    (Arith.pooled [ (10.0, 2.0); (99.0, 0.0) ]);
  Alcotest.(check (option (float 1e-9))) "no denominator" None (Arith.pooled [ (1.0, 0.0) ])

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_spec_round_trip () =
  let text = read_file "../BENCHMARK.json" in
  let spec = Spec.of_string text in
  Spec.validate spec;
  Alcotest.(check string) "written back byte for byte" text (Spec.to_string spec);
  Alcotest.(check bool) "setup_s declared" true
    (List.exists (fun (m : Spec.metric) -> m.name = "setup_s") spec.end_to_end)

let invalid f = match f () with _ -> false | exception Spec.Invalid _ -> true

let test_spec_rejects () =
  let spec = Spec.of_string (read_file "../BENCHMARK.json") in
  let bad what s = Alcotest.(check bool) what true (invalid (fun () -> Spec.validate s)) in
  let e2e f = { spec with end_to_end = List.map f spec.end_to_end } in
  bad "bound above 0.25" (e2e (fun m -> { m with bound = Some 0.3 }));
  bad "setup_s bound not the largest"
    (e2e (fun m -> if m.name = "setup_s" then { m with bound = Some 0.01 } else m));
  bad "no setup_s" { spec with end_to_end = List.filter (fun m -> m.Spec.name <> "setup_s") spec.end_to_end };
  bad "name starting with a dot" (e2e (fun m -> { m with name = "." ^ m.name }));
  bad "unit with a space" (e2e (fun m -> { m with unit_ = "m s" }));
  bad "one workload" { spec with workloads = [ List.hd spec.workloads ] };
  bad "path leaving the repo" { spec with paths = [ "../x" ] };
  bad "absolute path" { spec with paths = [ "/x" ] };
  bad "run_seconds 61" { spec with run_seconds = 61 };
  bad "duplicate name" { spec with per_layer = spec.per_layer @ [ List.hd spec.per_layer ] };
  let parse what s = Alcotest.(check bool) what true (invalid (fun () -> Spec.of_string s)) in
  parse "not JSON" "{";
  parse "missing keys" "{\"command\": []}";
  let text = read_file "../BENCHMARK.json" in
  let at = String.index text '}' in
  parse "unknown key"
    (String.sub text 0 at ^ ", \"x\": 1" ^ String.sub text at (String.length text - at))

let metrics =
  [
    { Spec.name = "wall_s"; unit_ = "s"; better = "lower"; bound = Some 0.1 };
    { Spec.name = "setup_s"; unit_ = "s"; better = "lower"; bound = Some 0.25 };
  ]

let test_result_line () =
  let line =
    Spec.result_line ~correct:true ~attempted:96 ~failed:0 metrics
      [ ("setup_s", 0.8127); ("wall_s", 1.2034) ]
  in
  Alcotest.(check string) "shape and order"
    "{\"correct\": true, \"attempted\": 96, \"failed\": 0, \"metrics\": {\"wall_s\": \
     {\"value\": 1.2034, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.81269999999999998, \
     \"unit\": \"s\"}}}"
    line;
  let j = Obs.Json.parse line in
  Alcotest.(check (option (float 0.0))) "value parses back exactly" (Some 0.8127)
    (Option.bind (Obs.Json.member "metrics" j) (fun m ->
         Option.bind (Obs.Json.member "setup_s" m) (Obs.Json.num_member "value")));
  Alcotest.(check string) "whole numbers print without a fraction" "3651103"
    (Spec.number 3651103.0);
  Alcotest.(check bool) "missing metric" true
    (raises_invalid (fun () ->
         Spec.result_line ~correct:true ~attempted:1 ~failed:0 metrics [ ("wall_s", 1.0) ]));
  Alcotest.(check bool) "undeclared metric" true
    (raises_invalid (fun () ->
         Spec.result_line ~correct:true ~attempted:1 ~failed:0 metrics
           [ ("wall_s", 1.0); ("setup_s", 1.0); ("x", 1.0) ]));
  Alcotest.(check bool) "not finite" true (raises_invalid (fun () -> Spec.number Float.nan))

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "ten beyond" `Quick test_ten_beyond;
          Alcotest.test_case "fail share" `Quick test_fail_share;
          Alcotest.test_case "pooled ratio" `Quick test_pooled;
        ] );
      ( "spec",
        [
          Alcotest.test_case "round trip" `Quick test_spec_round_trip;
          Alcotest.test_case "rejects" `Quick test_spec_rejects;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
