(* The op sequences the cross-protocol oracle replays: hand-written
   handoff shapes plus a bounded sample of the model checker's paths.
   Shared by test_oracle and the golden oracle snapshot. *)

module E = Check.Explore

(* hand-written sequences covering the interesting shapes: write
   sharing, sequential write-read handoff, remove-under-open,
   client crash (forget) with a dirty file *)
let handoffs =
  Check.Invariant.
    [
      (* sequential write-read: the Table 5-4 pattern *)
      [
        Open (0, 0, Spritely.State_table.Write);
        Close (0, 0, Spritely.State_table.Write);
        Open (1, 0, Spritely.State_table.Read);
        Close (1, 0, Spritely.State_table.Read);
        Open (2, 0, Spritely.State_table.Write);
        Close (2, 0, Spritely.State_table.Write);
        Open (0, 0, Spritely.State_table.Read);
      ];
      (* concurrent write sharing on f0, private traffic on f1 *)
      [
        Open (0, 0, Spritely.State_table.Write);
        Open (1, 0, Spritely.State_table.Read);
        Open (2, 1, Spritely.State_table.Write);
        Close (2, 1, Spritely.State_table.Write);
        Close (0, 0, Spritely.State_table.Write);
        Open (2, 0, Spritely.State_table.Read);
      ];
      (* dirty writer crashes; survivors must still see the server *)
      [
        Open (0, 0, Spritely.State_table.Write);
        Close (0, 0, Spritely.State_table.Write);
        Forget 0;
        Open (1, 0, Spritely.State_table.Read);
      ];
      (* remove with a reader still holding the file open *)
      [
        Open (0, 1, Spritely.State_table.Write);
        Close (0, 1, Spritely.State_table.Write);
        Open (1, 1, Spritely.State_table.Read);
        Remove 1;
        Open (2, 0, Spritely.State_table.Write);
        Close (2, 0, Spritely.State_table.Write);
      ];
    ]

let checker_paths =
  lazy
    (let config =
       { E.default_config with E.max_states = 5_000; path_stride = 251 }
     in
     let r = E.Table_checker.run ~config () in
     (* drop empty prefixes; cap the suite's simulation budget *)
     let paths = List.filter (fun p -> p <> []) r.E.paths in
     let rec take n = function
       | x :: tl when n > 0 -> x :: take (n - 1) tl
       | _ -> []
     in
     take 16 paths)

let sequences () = handoffs @ Lazy.force checker_paths
