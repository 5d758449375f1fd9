(* Cross-protocol consistency oracle (lib/check/oracle).

   Op sequences derived from the model checker's state-space walk are
   replayed through the real simulated NFS/SNFS/RFS/Kent client-server
   stacks and diffed against a serial reference model. The strict
   protocols (SNFS, RFS, Kent) must never serve a stale read; NFS
   staleness is the paper's documented divergence and is only
   reported. Post-quiesce server contents must be exact for all four
   (NFS writes through on close). *)

module O = Check.Oracle

let sequences = Oracle_sequences.sequences

let name proto = String.lowercase_ascii (Stacks.name proto)

let test_strict proto () =
  let o = O.replay_all proto (sequences ()) in
  Alcotest.(check bool) "exercised some reads" true (o.O.reads > 0);
  Alcotest.(check int) (name proto ^ ": stale reads") 0 o.O.stale;
  Alcotest.(check int)
    (name proto ^ ": server divergence after quiesce")
    0 o.O.server_divergence

let test_documented proto () =
  let o = O.replay_all proto (sequences ()) in
  Alcotest.(check bool) "exercised some reads" true (o.O.reads > 0);
  (* staleness is documented, not asserted; write-through still makes
     the settled server state exact *)
  Printf.printf "oracle: %s served %d/%d stale reads (documented)\n%!"
    (name proto) o.O.stale o.O.reads;
  Alcotest.(check int)
    (name proto ^ ": server divergence after quiesce")
    0 o.O.server_divergence

(* Stacks.strict picks the assertion: zero stale reads, or the
   documented staleness of NFS's attribute cache *)
let case proto =
  if Stacks.strict proto then
    Alcotest.test_case
      (name proto ^ ": no stale reads, exact server")
      `Quick (test_strict proto)
  else
    Alcotest.test_case
      (name proto ^ ": staleness documented, exact server")
      `Quick (test_documented proto)

let () =
  Alcotest.run "oracle"
    [ ("checker-derived sequences", List.map case Stacks.remote) ]
