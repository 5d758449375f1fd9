type config = {
  cache_blocks : int;
  read_ahead : bool;
  delayed_close : bool;
  delayed_close_timeout : float;
  retry_budget : float option;
}

let default_config =
  {
    cache_blocks = 4096;
    read_ahead = true;
    delayed_close = false;
    delayed_close_timeout = 120.0;
    retry_budget = None;
  }

type unsent_close = { u_id : int; u_write : bool }

type gnode = {
  g_ino : int;
  g_gen : int;
  mutable g_attrs : Localfs.attrs;
  mutable g_cached_version : int option;
  mutable g_cache_enabled : bool;
  mutable g_reads : int; (* local open counts, by declared mode *)
  mutable g_writes : int;
  mutable g_unsent : unsent_close list; (* delayed closes, Section 6.2 *)
  mutable g_last_read : int;
}

type t = {
  rpc : Netsim.Rpc.t;
  client : Netsim.Net.Host.t;
  server : Netsim.Net.Host.t;
  root : Nfs.Wire.fh;
  config : config;
  engine : Sim.Engine.t;
  cache : Blockcache.Cache.t;
  gnodes : (int, gnode) Hashtbl.t;
  budget : Netsim.Rpc.budget option;
  mutable fs : Vfs.Fs.t option;
  mutable next_unsent_id : int;
  mutable delayed_close_hits : int;
  mutable callbacks_served : int;
  mutable last_epoch : int option; (* server boot epoch, for keepalive *)
}

let block_size = 4096

(* Partially applied as [call t ctx]: every RPC of one client
   operation is stamped with its causal context. *)
let call t ctx ~proc ?bulk args =
  Netsim.Rpc.call t.rpc ~ctx ~src:t.client ~dst:t.server
    ~prog:Snfs_server.prog ~proc ?budget:t.budget ?bulk args

(* Run one GFS operation under a fresh causal root ({!Obs.Causal.root}).
   With tracing off there is no root span, so no [~now] closure is
   built. *)
let op t name f =
  if not (Obs.Trace.on ()) then f Obs.Causal.none
  else
    Obs.Causal.root
      ~now:(fun () -> Sim.Engine.now t.engine)
      ~track:(Netsim.Net.Host.name t.client)
      ~name f

let gnode t ino =
  match Hashtbl.find_opt t.gnodes ino with
  | Some g -> g
  | None -> invalid_arg "Snfs_client: unknown gnode"

let proto_event t name args =
  if Obs.Trace.on () then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"snfs" ~name
      ~track:(Netsim.Net.Host.name t.client)
      ~args ()

let fh_of t (g : gnode) =
  { Nfs.Wire.fsid = t.root.Nfs.Wire.fsid; ino = g.g_ino; gen = g.g_gen }

(* Server attributes are stale while we hold valid (possibly dirty)
   cached data: the delayed writes have not reached the server yet, so
   our local size and mtime are the authoritative ones. *)
let merge_attrs g (server : Localfs.attrs) =
  if g.g_cached_version <> None then
    {
      server with
      Localfs.size = max server.Localfs.size g.g_attrs.Localfs.size;
      mtime = Float.max server.Localfs.mtime g.g_attrs.Localfs.mtime;
    }
  else server

let note_attrs t (attrs : Localfs.attrs) =
  match Hashtbl.find_opt t.gnodes attrs.ino with
  | Some g ->
      g.g_attrs <- merge_attrs g attrs;
      g
  | None ->
      let g =
        {
          g_ino = attrs.ino;
          g_gen = attrs.gen;
          g_attrs = attrs;
          g_cached_version = None;
          g_cache_enabled = false;
          g_reads = 0;
          g_writes = 0;
          g_unsent = [];
          g_last_read = -2;
        }
      in
      Hashtbl.replace t.gnodes attrs.ino g;
      g

let vn_of t (g : gnode) =
  match t.fs with
  | Some fs -> { Vfs.Fs.fs; vid = g.g_ino }
  | None -> assert false

let drop_cache t g =
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
  ignore (Blockcache.Cache.cancel_dirty t.cache ~file:g.g_ino)

let flush_cache ?(ctx = Obs.Causal.none) t g =
  Blockcache.Cache.flush_file ~ctx t.cache ~file:g.g_ino;
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino

(* ---- delayed close (Section 6.2) ---- *)

let send_close t ctx g ~write =
  Nfs.Wire.snfs_close (call t ctx) (fh_of t g) ~write_mode:write

(* release every withheld close (a callback arrived, or the file is
   going away) *)
let release_unsent t ctx g =
  let unsent = g.g_unsent in
  g.g_unsent <- [];
  (* delayed close (Section 6.2) accumulates at most a handful *)
  (* snfs-fanout: bounded — the withheld closes of one open-file record *)
  List.iter (fun u -> send_close t ctx g ~write:u.u_write) unsent

let add_unsent t g ~write =
  let id = t.next_unsent_id in
  t.next_unsent_id <- id + 1;
  g.g_unsent <- g.g_unsent @ [ { u_id = id; u_write = write } ];
  (* spontaneous close if nobody reopens for a while *)
  Sim.Engine.after t.engine t.config.delayed_close_timeout (fun () ->
      if List.exists (fun u -> u.u_id = id) g.g_unsent then
        Sim.Engine.spawn t.engine ~name:"snfs.delayed_close" (fun () ->
            if List.exists (fun u -> u.u_id = id) g.g_unsent then begin
              g.g_unsent <- List.filter (fun u -> u.u_id <> id) g.g_unsent;
              (* background expiry: no client operation induced it *)
              send_close t Obs.Causal.none g ~write
            end))

let take_unsent g ~write =
  match List.partition (fun u -> u.u_write = write) g.g_unsent with
  | u :: rest_same, others ->
      g.g_unsent <- rest_same @ others;
      ignore u;
      true
  | [], _ -> false

(* ---- open / close ---- *)

let note_cache_mode t g enabled =
  (* a Table 4-1 consistency decision arrived: count actual flips of
     this client's caching mode *)
  if Obs.Metrics.on () && g.g_cache_enabled <> enabled then
    Obs.Metrics.incr
      ~labels:
        [
          ("host", Netsim.Net.Host.name t.client);
          ("to", (if enabled then "enabled" else "disabled"));
        ]
      "snfs_cache_mode_transitions_total"

let process_open_reply t ctx g ~write (r : Nfs.Wire.open_reply) =
  let valid =
    Spritely.Version.valid_for_open ~cached:g.g_cached_version
      ~latest:r.Nfs.Wire.version ~previous:r.Nfs.Wire.prev_version ~write
  in
  if valid then
    (* our cached copy (and local size, which the server has not seen
       because the writes are still delayed here) stays authoritative *)
    g.g_attrs <- merge_attrs g r.Nfs.Wire.attrs
  else begin
    (* a stale copy can hold no dirty blocks we are entitled to keep *)
    ignore (Blockcache.Cache.cancel_dirty t.cache ~file:g.g_ino);
    g.g_cached_version <- None;
    g.g_attrs <- r.Nfs.Wire.attrs
  end;
  if r.Nfs.Wire.cache_enabled then begin
    note_cache_mode t g true;
    g.g_cache_enabled <- true;
    g.g_cached_version <- Some r.Nfs.Wire.version
  end
  else begin
    (* write-shared: return valid dirty data, then stop caching *)
    note_cache_mode t g false;
    if valid then flush_cache ~ctx t g;
    drop_cache t g;
    Blockcache.Cache.invalidate_file t.cache ~file:g.g_ino;
    g.g_cache_enabled <- false;
    g.g_cached_version <- None
  end

let do_open t vn mode =
  op t "open" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  g.g_last_read <- -1;
  let write = Vfs.Fs.mode_writes mode in
  if t.config.delayed_close && take_unsent g ~write then begin
    (* the server still thinks we have this open: reuse it *)
    t.delayed_close_hits <- t.delayed_close_hits + 1;
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("host", Netsim.Net.Host.name t.client) ]
        "snfs_delayed_close_hits_total"
  end
  else begin
    (* a rebooted server refuses opens during its recovery grace
       period; back off and retry until it is willing *)
    let rec attempt tries =
      match Nfs.Wire.snfs_open (call t ctx) (fh_of t g) ~write_mode:write with
      | reply -> process_open_reply t ctx g ~write reply
      | exception Localfs.Error Localfs.Again when tries < 120 ->
          Sim.Engine.sleep t.engine 2.0;
          attempt (tries + 1)
    in
    attempt 0
  end;
  proto_event t "open"
    [
      ("ino", Obs.Trace.Int g.g_ino);
      ("write", Obs.Trace.Bool write);
      ("cache_enabled", Obs.Trace.Bool g.g_cache_enabled);
    ];
  if write then g.g_writes <- g.g_writes + 1 else g.g_reads <- g.g_reads + 1

let do_close t vn mode =
  op t "close" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  let write = Vfs.Fs.mode_writes mode in
  if write then g.g_writes <- g.g_writes - 1 else g.g_reads <- g.g_reads - 1;
  proto_event t "close"
    [
      ("ino", Obs.Trace.Int g.g_ino);
      ("write", Obs.Trace.Bool write);
      ("delayed", Obs.Trace.Bool t.config.delayed_close);
    ];
  (* no flush: dirty blocks stay cached under the delayed-write policy *)
  if t.config.delayed_close then add_unsent t g ~write
  else send_close t ctx g ~write

(* ---- data path ---- *)

let do_read_block t vn ~index =
  op t "read" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  if g.g_cache_enabled then begin
    if index * block_size >= g.g_attrs.Localfs.size then (0, 0)
    else begin
      let result = Blockcache.Cache.read ~ctx t.cache ~file:g.g_ino ~index in
      (* read-ahead, but never for non-cachable files (Section 4.2.1) *)
      if
        t.config.read_ahead
        && index = g.g_last_read + 1
        && (index + 1) * block_size < g.g_attrs.Localfs.size
        && Blockcache.Cache.peek t.cache ~file:g.g_ino ~index:(index + 1)
           = None
      then
        Sim.Engine.spawn t.engine ~name:"snfs.readahead" (fun () ->
            ignore
              (Blockcache.Cache.read t.cache ~file:g.g_ino ~index:(index + 1)));
      g.g_last_read <- index;
      result
    end
  end
  else
    (* write-shared: every read goes to the server *)
    Nfs.Wire.read (call t ctx) (fh_of t g) ~index

let do_write_block t vn ~index ~stamp ~len =
  op t "write" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  if g.g_cache_enabled then begin
    Blockcache.Cache.write ~ctx t.cache ~file:g.g_ino ~index ~stamp ~len
      `Delayed;
    let size = max g.g_attrs.Localfs.size ((index * block_size) + len) in
    g.g_attrs <- { g.g_attrs with Localfs.size }
  end
  else begin
    (* write-shared: write through to the server *)
    let attrs = Nfs.Wire.write (call t ctx) (fh_of t g) ~index ~stamp ~len in
    g.g_attrs <- attrs
  end

(* ---- namespace ---- *)

let do_lookup t ~dir name =
  op t "lookup" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  let _fh, attrs = Nfs.Wire.lookup (call t ctx) ~dir:(fh_of t dirg) name in
  vn_of t (note_attrs t attrs)

let do_root t () =
  match Hashtbl.find_opt t.gnodes t.root.Nfs.Wire.ino with
  | Some g -> vn_of t g
  | None ->
      op t "root" @@ fun ctx ->
      let attrs = Nfs.Wire.getattr (call t ctx) t.root in
      vn_of t (note_attrs t attrs)

let do_create t ~dir name =
  op t "create" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  let _fh, attrs = Nfs.Wire.create (call t ctx) ~dir:(fh_of t dirg) name in
  vn_of t (note_attrs t attrs)

let do_mkdir t ~dir name =
  op t "mkdir" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  let _fh, attrs = Nfs.Wire.mkdir (call t ctx) ~dir:(fh_of t dirg) name in
  vn_of t (note_attrs t attrs)

let do_remove t ~dir name =
  op t "remove" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  (match Nfs.Wire.lookup (call t ctx) ~dir:(fh_of t dirg) name with
  | fh, _ -> (
      match Hashtbl.find_opt t.gnodes fh.Nfs.Wire.ino with
      | Some g ->
          (* the delete-before-write-back optimization (Section 5.4):
             dirty blocks of the dead file are simply dropped *)
          g.g_unsent <- [];
          drop_cache t g;
          Hashtbl.remove t.gnodes g.g_ino
      | None -> ())
  | exception Localfs.Error _ -> ());
  Nfs.Wire.remove (call t ctx) ~dir:(fh_of t dirg) name

let do_rmdir t ~dir name =
  op t "rmdir" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  Nfs.Wire.rmdir (call t ctx) ~dir:(fh_of t dirg) name

let do_rename t ~fromdir fname ~todir tname =
  op t "rename" @@ fun ctx ->
  let fg = gnode t fromdir.Vfs.Fs.vid in
  let tg = gnode t todir.Vfs.Fs.vid in
  Nfs.Wire.rename (call t ctx) ~fromdir:(fh_of t fg) fname ~todir:(fh_of t tg)
    tname

let do_readdir t vn =
  op t "readdir" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  Nfs.Wire.readdir (call t ctx) (fh_of t g)

let do_getattr t vn =
  let g = gnode t vn.Vfs.Fs.vid in
  if (not g.g_cache_enabled) && g.g_reads + g.g_writes > 0 then begin
    op t "getattr" @@ fun ctx ->
    (* write-shared files always fetch attributes (Section 4.2.1) *)
    let attrs = Nfs.Wire.getattr (call t ctx) (fh_of t g) in
    g.g_attrs <- attrs;
    attrs
  end
  else g.g_attrs

let do_setattr t vn ~size =
  op t "setattr" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  drop_cache t g;
  Blockcache.Cache.invalidate_file t.cache ~file:g.g_ino;
  let attrs = Nfs.Wire.setattr (call t ctx) (fh_of t g) ~size in
  g.g_attrs <- attrs

let do_fsync t vn =
  op t "fsync" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  flush_cache ~ctx t g

(* ---- callback service (Section 4.2.2) ---- *)

let handle_callback t dec =
  let args = Nfs.Wire.dec_callback dec in
  let ino = args.Nfs.Wire.cb_fh.Nfs.Wire.ino in
  (* the inducing operation rode the wire: close the causal chain with
     the effect end of the flow arrow on this client's track *)
  let cctx = Obs.Causal.of_id args.Nfs.Wire.cb_ctx in
  t.callbacks_served <- t.callbacks_served + 1;
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:
        [
          ("host", Netsim.Net.Host.name t.client);
          ( "kind",
            match (args.Nfs.Wire.cb_writeback, args.Nfs.Wire.cb_invalidate)
            with
            | true, true -> "writeback_invalidate"
            | true, false -> "writeback"
            | false, true -> "invalidate"
            | false, false -> "noop" );
        ]
      "snfs_callbacks_served_total";
  if Obs.Trace.on () && Obs.Causal.live cctx then
    Obs.Trace.flow_end
      ~ts:(Sim.Engine.now t.engine)
      ~track:(Netsim.Net.Host.name t.client)
      ~id:(Obs.Causal.id cctx) ();
  proto_event t "callback"
    (Obs.Causal.arg cctx
       [
         ("ino", Obs.Trace.Int ino);
         ("writeback", Obs.Trace.Bool args.Nfs.Wire.cb_writeback);
         ("invalidate", Obs.Trace.Bool args.Nfs.Wire.cb_invalidate);
       ]);
  (match Hashtbl.find_opt t.gnodes ino with
  | None -> () (* nothing cached; trivially satisfied *)
  | Some g ->
      (* a delayed-close file must really close so the new client can
         cache it (Section 6.2) *)
      release_unsent t cctx g;
      if args.Nfs.Wire.cb_writeback then flush_cache ~ctx:cctx t g;
      if args.Nfs.Wire.cb_invalidate then begin
        drop_cache t g;
        Blockcache.Cache.invalidate_file t.cache ~file:ino;
        g.g_cache_enabled <- false;
        g.g_cached_version <- None
      end);
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_status e (Ok ());
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

(* ---- crash recovery (Section 2.4) ---- *)

let build_reports t =
  (* the reopen protocol (Section 2.4) reports the full per-client state *)
  (* snfs-fanout: bounded — one-shot crash-recovery sweep, not steady state *)
  Hashtbl.fold
    (fun _ g acc ->
      let unsent_reads =
        List.length (List.filter (fun u -> not u.u_write) g.g_unsent)
      in
      let unsent_writes =
        List.length (List.filter (fun u -> u.u_write) g.g_unsent)
      in
      let readers = g.g_reads + unsent_reads in
      let writers = g.g_writes + unsent_writes in
      let dirty = Blockcache.Cache.dirty_count t.cache ~file:g.g_ino > 0 in
      if readers > 0 || writers > 0 || dirty then
        (g.g_ino, readers, writers, g.g_cache_enabled, dirty,
         Option.value ~default:0 g.g_cached_version)
        :: acc
      else acc)
    t.gnodes []
  |> List.sort compare

let recover_now t =
  let reports = build_reports t in
  proto_event t "reopen" [ ("files", Obs.Trace.Int (List.length reports)) ];
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint32 e (List.length reports);
  List.iter
    (fun (ino, readers, writers, can_cache, dirty, version) ->
      Xdr.Enc.uint32 e ino;
      Xdr.Enc.uint32 e readers;
      Xdr.Enc.uint32 e writers;
      Xdr.Enc.bool e can_cache;
      Xdr.Enc.bool e dirty;
      Xdr.Enc.uint32 e version)
    reports;
  let d =
    Xdr.Dec.of_bytes
      (call t Obs.Causal.none ~proc:Nfs.Wire.p_reopen (Xdr.Enc.to_bytes e))
  in
  match Nfs.Wire.dec_status d with
  | Ok () -> ()
  | Error err -> raise (Localfs.Error err)

let ping t =
  let e = Xdr.Enc.create () in
  let d =
    Xdr.Dec.of_bytes
      (call t Obs.Causal.none ~proc:Nfs.Wire.p_ping (Xdr.Enc.to_bytes e))
  in
  match Nfs.Wire.dec_status d with
  | Ok () -> Some (Xdr.Dec.uint32 d)
  | Error _ -> None

let start_keepalive t ~interval =
  let rec loop () =
    Sim.Engine.sleep t.engine interval;
    (match ping t with
    | Some epoch -> (
        match t.last_epoch with
        | None -> t.last_epoch <- Some epoch
        | Some known when epoch <> known ->
            (* the server rebooted: rebuild its state from ours *)
            t.last_epoch <- Some epoch;
            recover_now t
        | Some _ -> ())
    | None -> ()
    | exception Netsim.Rpc.Timeout _ -> () (* server down; try again later *)
    | exception Netsim.Rpc.Server_unavailable _ ->
        () (* budgeted mount: outage outlasted the budget; keep pinging *));
    loop ()
  in
  Sim.Engine.spawn t.engine ~name:"snfs.keepalive" loop

(* ---- construction ---- *)

let mount rpc ~client ~server ~root ?(config = default_config) ?(name = "snfs")
    () =
  let engine = Netsim.Net.engine (Netsim.Rpc.net rpc) in
  let rec t =
    lazy
      (let backend =
         {
           Blockcache.Cache.read_block =
             (fun ~ctx ~file ~index ->
               let tt = Lazy.force t in
               let g = gnode tt file in
               Nfs.Wire.read (call tt ctx) (fh_of tt g) ~index);
           write_block =
             (fun ~ctx ~file ~index ~stamp ~len ->
               let tt = Lazy.force t in
               let g = gnode tt file in
               (* the file may have been removed while this delayed
                  write was in flight: its data no longer matters *)
               match
                 Nfs.Wire.write (call tt ctx) (fh_of tt g) ~index ~stamp ~len
               with
               | attrs -> g.g_attrs <- attrs
               | exception Localfs.Error Localfs.Stale -> ());
         }
       in
       {
         rpc;
         client;
         server;
         root;
         config;
         engine;
         cache =
           Blockcache.Cache.create engine ~name:(name ^ ".cache")
             ~capacity_blocks:config.cache_blocks ~block_size backend;
         gnodes = Hashtbl.create 256;
         budget = Option.map Netsim.Rpc.budget config.retry_budget;
         fs = None;
         next_unsent_id = 0;
         delayed_close_hits = 0;
         callbacks_served = 0;
         last_epoch = None;
       })
  in
  let t = Lazy.force t in
  (* the client fields server-initiated RPCs: register its service *)
  let _svc =
    Netsim.Rpc.serve rpc client
      ~prog:(Snfs_server.client_prog_for root.Nfs.Wire.fsid)
      ~threads:2
      (fun ~caller:_ ~ctx:_ ~proc dec ->
        if proc = Nfs.Wire.p_callback then handle_callback t dec
        else if proc = Nfs.Wire.p_ping then begin
          (* liveness probe from the server's client reaper *)
          let e = Xdr.Enc.create () in
          Nfs.Wire.enc_status e (Ok ());
          Xdr.Enc.uint32 e (Netsim.Net.Host.boot_epoch t.client);
          { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }
        end
        else
          let e = Xdr.Enc.create () in
          Nfs.Wire.enc_status e (Error Localfs.Stale);
          { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 })
  in
  let fs =
    {
      Vfs.Fs.fs_name = name;
      block_size;
      root = (fun () -> do_root t ());
      lookup = (fun ~dir name -> do_lookup t ~dir name);
      create = (fun ~dir name -> do_create t ~dir name);
      mkdir = (fun ~dir name -> do_mkdir t ~dir name);
      remove = (fun ~dir name -> do_remove t ~dir name);
      rmdir = (fun ~dir name -> do_rmdir t ~dir name);
      rename = (fun ~fromdir f ~todir tn -> do_rename t ~fromdir f ~todir tn);
      readdir = (fun vn -> do_readdir t vn);
      getattr = (fun vn -> do_getattr t vn);
      setattr = (fun vn ~size -> do_setattr t vn ~size);
      fs_open = (fun vn mode -> do_open t vn mode);
      fs_close = (fun vn mode -> do_close t vn mode);
      read_block = (fun vn ~index -> do_read_block t vn ~index);
      write_block =
        (fun vn ~index ~stamp ~len -> do_write_block t vn ~index ~stamp ~len);
      fsync = (fun vn -> do_fsync t vn);
    }
  in
  t.fs <- Some fs;
  t

let fs t = match t.fs with Some fs -> fs | None -> assert false
let cache t = t.cache
let start_syncer t ~interval = Blockcache.Cache.start_syncer t.cache ~interval ()
let delayed_close_hits t = t.delayed_close_hits
let callbacks_served t = t.callbacks_served

(* oracle hook: force every delayed-write block to the server so the
   consistency oracle can diff the server copy against its model *)
let quiesce t = Blockcache.Cache.flush_all t.cache
