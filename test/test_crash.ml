(* The deterministic crash campaign end-to-end: each protocol stack
   survives the seeded schedule (server crash and reboot mid-Andrew,
   two client crashes without close, a partition that heals) with zero
   acknowledged-write loss, SNFS additionally completing the whole
   client-lifecycle story; and the same seed reproduces the run
   byte-for-byte, trace and metrics included. *)

module CE = Experiments.Crash_exp

let seed = 42L

let check_verdict (v : CE.verdict) =
  Alcotest.(check int)
    (v.CE.protocol ^ ": no acknowledged-write loss")
    0 v.CE.divergent;
  Alcotest.(check bool)
    (v.CE.protocol ^ ": surviving writes verified")
    true
    (v.CE.files_checked >= 2);
  Alcotest.(check bool) (v.CE.protocol ^ ": verdict ok") true v.CE.ok

let test_protocol protocol () = check_verdict (CE.run ~protocol ~seed ())

let test_snfs_lifecycle protocol () =
  let v = CE.run ~protocol ~seed () in
  check_verdict v;
  match v.CE.lifecycle with
  | None -> Alcotest.fail "SNFS verdict carries no lifecycle stats"
  | Some st ->
      Alcotest.(check bool) "laundromat ran" true
        (st.Snfs.Snfs_server.laundromat_runs > 0);
      Alcotest.(check bool) "crashed clients demoted" true
        (st.Snfs.Snfs_server.demotions >= 3);
      Alcotest.(check int) "client1 reaped from Courtesy (lifetime)" 1
        st.Snfs.Snfs_server.reaped_courtesy;
      Alcotest.(check int) "client2 reaped as Expirable (conflict)" 1
        st.Snfs.Snfs_server.reaped_expirable;
      Alcotest.(check bool) "partitioned client revived" true
        (st.Snfs.Snfs_server.revivals >= 1);
      Alcotest.(check bool)
        "courtesy client resumed without reopen or reap" true
        v.CE.courtesy_resumed

(* same seed, observability on: the trace JSON and the metrics CSV of
   two runs must be byte-identical *)
let test_determinism () =
  let observe () =
    let trace = Obs.Trace.create () in
    let metrics = Obs.Metrics.create () in
    let v =
      CE.run ~trace ~metrics
        ~protocol:(Stacks.Snfs_proto Snfs.Snfs_client.default_config)
        ~seed ()
    in
    (v, Obs.Chrome.to_string trace, Obs.Metrics.to_csv metrics)
  in
  let v1, trace1, csv1 = observe () in
  let v2, trace2, csv2 = observe () in
  Alcotest.(check bool) "verdicts identical" true (v1 = v2);
  Alcotest.(check bool) "traces are non-trivial" true
    (String.length trace1 > 10_000);
  Alcotest.(check bool) "trace JSON byte-identical" true (trace1 = trace2);
  Alcotest.(check bool) "metrics CSV byte-identical" true (csv1 = csv2)

(* every stack the campaign covers; SNFS additionally runs the whole
   client-lifecycle story *)
let campaign_case protocol =
  let name = CE.protocol_name protocol in
  match protocol with
  | Stacks.Snfs_proto _ ->
      Alcotest.test_case (name ^ " lifecycle") `Slow
        (test_snfs_lifecycle protocol)
  | _ -> Alcotest.test_case name `Slow (test_protocol protocol)

let () =
  Alcotest.run "crash"
    [
      ("campaign", List.map campaign_case CE.all_protocols);
      ( "determinism",
        [
          Alcotest.test_case "same seed, same bytes" `Slow test_determinism;
        ] );
    ]
