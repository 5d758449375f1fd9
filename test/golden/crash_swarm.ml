(* Crash-swarm summary: every remote protocol stack under the seeded
   crash schedule for seeds 1..60, one line per run. A run that
   completes prints its verdict fields; a run that dies prints the
   exception. Known failures are recorded here, never filtered out, so
   a change that fixes (or breaks) a seed shows up as a diff. *)

module CE = Experiments.Crash_exp

let lifecycle = function
  | None -> "-"
  | Some (st : Snfs.Snfs_server.lifecycle_stats) ->
      Printf.sprintf "runs=%d demotions=%d revivals=%d reaped=%d/%d"
        st.laundromat_runs st.demotions st.revivals st.reaped_courtesy
        st.reaped_expirable

let () =
  List.iter
    (fun protocol ->
      for s = 1 to 60 do
        let seed = Int64.of_int s in
        let name = CE.protocol_name protocol in
        match CE.run ~protocol ~seed () with
        | v ->
            Printf.printf
              "%s seed=%d checked=%d divergent=%d lost=%d andrew=%.6f \
               lifecycle=[%s] resumed=%b ok=%b\n"
              v.CE.protocol s v.CE.files_checked v.CE.divergent v.CE.lost_files
              v.CE.andrew_total (lifecycle v.CE.lifecycle)
              v.CE.courtesy_resumed v.CE.ok
        | exception e ->
            Printf.printf "%s seed=%d raised %s\n" name s (Printexc.to_string e)
      done)
    CE.all_protocols
