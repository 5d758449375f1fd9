type config = {
  cache_blocks : int;
  read_ahead : bool;
  retry_budget : float option;
}

let default_config =
  { cache_blocks = 4096; read_ahead = true; retry_budget = None }

type gnode = {
  g_ino : int;
  g_gen : int;
  mutable g_attrs : Localfs.attrs;
  mutable g_cached_version : int option;
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
  mutable invalidations_served : int;
}

let block_size = 4096

(* Partially applied as [call t ctx]: every RPC of one client
   operation is stamped with its causal context. *)
let call t ctx ~proc ?bulk args =
  Netsim.Rpc.call t.rpc ~ctx ~src:t.client ~dst:t.server
    ~prog:Rfs_server.prog ~proc ?budget:t.budget ?bulk args

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
  | None -> invalid_arg "Rfs_client: unknown gnode"

let proto_event t name args =
  if Obs.Trace.on () then
    Obs.Trace.instant
      ~ts:(Sim.Engine.now t.engine)
      ~cat:"rfs" ~name
      ~track:(Netsim.Net.Host.name t.client)
      ~args ()

let fh_of t (g : gnode) =
  { Nfs.Wire.fsid = t.root.Nfs.Wire.fsid; ino = g.g_ino; gen = g.g_gen }

let note_attrs t (attrs : Localfs.attrs) =
  match Hashtbl.find_opt t.gnodes attrs.ino with
  | Some g ->
      g.g_attrs <- attrs;
      g
  | None ->
      let g =
        {
          g_ino = attrs.ino;
          g_gen = attrs.gen;
          g_attrs = attrs;
          g_cached_version = None;
          g_last_read = -2;
        }
      in
      Hashtbl.replace t.gnodes attrs.ino g;
      g

let vn_of t (g : gnode) =
  match t.fs with
  | Some fs -> { Vfs.Fs.fs; vid = g.g_ino }
  | None -> assert false

(* open RPC: returns the file's version for cache revalidation *)
let rfs_open t ctx g ~write =
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_fh e (fh_of t g);
  Xdr.Enc.bool e write;
  let d =
    Xdr.Dec.of_bytes (call t ctx ~proc:Nfs.Wire.p_open (Xdr.Enc.to_bytes e))
  in
  (match Nfs.Wire.dec_status d with
  | Ok () -> ()
  | Error err -> raise (Localfs.Error err));
  let version = Xdr.Dec.uint32 d in
  let attrs = Nfs.Wire.dec_attrs d in
  g.g_attrs <- attrs;
  (* writers bump the version; our own bump must not look like someone
     else's update, so accept either exact match or the bump we caused *)
  let valid =
    match g.g_cached_version with
    | None -> false
    | Some v -> v = version || (write && v = version - 1)
  in
  if not valid then begin
    Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
    ignore (Blockcache.Cache.cancel_dirty t.cache ~file:g.g_ino)
  end;
  proto_event t "open"
    [
      ("ino", Obs.Trace.Int g.g_ino);
      ("write", Obs.Trace.Bool write);
      ("revalidated", Obs.Trace.Bool valid);
    ];
  g.g_cached_version <- Some version

let rfs_close t ctx g ~write =
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_fh e (fh_of t g);
  Xdr.Enc.bool e write;
  let d =
    Xdr.Dec.of_bytes (call t ctx ~proc:Nfs.Wire.p_close (Xdr.Enc.to_bytes e))
  in
  match Nfs.Wire.dec_status d with
  | Ok () -> ()
  | Error err -> raise (Localfs.Error err)

let do_open t vn mode =
  op t "open" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  g.g_last_read <- -1;
  rfs_open t ctx g ~write:(Vfs.Fs.mode_writes mode)

let do_close t vn mode =
  op t "close" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  (* write-through discipline: everything pending reaches the server
     before the close *)
  Blockcache.Cache.flush_file ~ctx t.cache ~file:g.g_ino;
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
  rfs_close t ctx g ~write:(Vfs.Fs.mode_writes mode)

let do_read_block t vn ~index =
  op t "read" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  if index * block_size >= g.g_attrs.Localfs.size then (0, 0)
  else begin
    let result = Blockcache.Cache.read ~ctx t.cache ~file:g.g_ino ~index in
    if
      t.config.read_ahead
      && index = g.g_last_read + 1
      && (index + 1) * block_size < g.g_attrs.Localfs.size
      && Blockcache.Cache.peek t.cache ~file:g.g_ino ~index:(index + 1) = None
    then
      Sim.Engine.spawn t.engine ~name:"rfs.readahead" (fun () ->
          ignore (Blockcache.Cache.read t.cache ~file:g.g_ino ~index:(index + 1)));
    g.g_last_read <- index;
    result
  end

let do_write_block t vn ~index ~stamp ~len =
  op t "write" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  let mode = if len >= block_size then `Async else `Delayed in
  Blockcache.Cache.write ~ctx t.cache ~file:g.g_ino ~index ~stamp ~len mode;
  let size = max g.g_attrs.Localfs.size ((index * block_size) + len) in
  g.g_attrs <- { g.g_attrs with Localfs.size }

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
          Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
          ignore (Blockcache.Cache.cancel_dirty t.cache ~file:g.g_ino);
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
  (* no periodic probes: the server invalidates us if anything changes *)
  g.g_attrs

let do_setattr t vn ~size =
  op t "setattr" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
  ignore (Blockcache.Cache.cancel_dirty t.cache ~file:g.g_ino);
  let attrs = Nfs.Wire.setattr (call t ctx) (fh_of t g) ~size in
  g.g_attrs <- attrs

let do_fsync t vn =
  op t "fsync" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  Blockcache.Cache.flush_file ~ctx t.cache ~file:g.g_ino;
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino

let handle_callback t dec =
  let args = Nfs.Wire.dec_callback dec in
  let ino = args.Nfs.Wire.cb_fh.Nfs.Wire.ino in
  (* the inducing operation rode the wire: close the causal chain with
     the effect end of the flow arrow on this client's track *)
  let cctx = Obs.Causal.of_id args.Nfs.Wire.cb_ctx in
  t.invalidations_served <- t.invalidations_served + 1;
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:[ ("host", Netsim.Net.Host.name t.client) ]
      "rfs_invalidations_served_total";
  if Obs.Trace.on () && Obs.Causal.live cctx then
    Obs.Trace.flow_end
      ~ts:(Sim.Engine.now t.engine)
      ~track:(Netsim.Net.Host.name t.client)
      ~id:(Obs.Causal.id cctx) ();
  proto_event t "invalidate"
    (Obs.Causal.arg cctx [ ("ino", Obs.Trace.Int ino) ]);
  (match Hashtbl.find_opt t.gnodes ino with
  | None -> ()
  | Some g ->
      (* drop clean copies only: our own writes still in flight (or
         staged partial blocks) are newer than the invalidating write
         and must not be lost — and waiting for them here could
         deadlock against the server's callback threads *)
      Blockcache.Cache.drop_clean t.cache ~file:ino;
      g.g_cached_version <- None);
  let e = Xdr.Enc.create () in
  Nfs.Wire.enc_status e (Ok ());
  { Netsim.Rpc.data = Xdr.Enc.to_bytes e; bulk = 0 }

let mount rpc ~client ~server ~root ?(config = default_config) ?(name = "rfs")
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
         invalidations_served = 0;
       })
  in
  let t = Lazy.force t in
  let _svc =
    Netsim.Rpc.serve rpc client
      ~prog:(Rfs_server.client_prog_for root.Nfs.Wire.fsid)
      ~threads:2
      (fun ~caller:_ ~ctx:_ ~proc dec ->
        if proc = Nfs.Wire.p_callback then handle_callback t dec
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
let invalidations_served t = t.invalidations_served

(* oracle hook: RFS writes through, so this only drains stragglers *)
let quiesce t = Blockcache.Cache.flush_all t.cache
