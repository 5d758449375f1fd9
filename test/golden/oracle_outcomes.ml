(* Cross-protocol oracle outcomes over the test_oracle sequences: read
   observations, stale reads and post-quiesce server divergence for
   each remote protocol stack. *)

module O = Check.Oracle

let () =
  let seqs = Oracle_sequences.sequences () in
  List.iter
    (fun proto ->
      let o = O.replay_all proto seqs in
      Printf.printf "%s reads=%d stale=%d server_divergence=%d\n"
        (String.lowercase_ascii (Stacks.name proto))
        o.O.reads o.O.stale o.O.server_divergence)
    Stacks.remote
