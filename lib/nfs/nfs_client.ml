type config = {
  cache_blocks : int;
  attr_min : float;
  attr_max : float;
  invalidate_on_close : bool;
  read_ahead : bool;
  retry_budget : float option;
      (* ride out server outages this long before Server_unavailable *)
}

let default_config =
  {
    cache_blocks = 4096; (* 16 MB of 4 KB blocks, the paper's client *)
    attr_min = 3.0;
    attr_max = 150.0;
    invalidate_on_close = true;
    read_ahead = true;
    retry_budget = None;
  }

type gnode = {
  g_ino : int;
  g_gen : int;
  mutable g_attrs : Localfs.attrs;
  mutable g_fetched : float; (* when g_attrs came from the server *)
  mutable g_cached_mtime : float; (* mtime the cached blocks belong to *)
  mutable g_last_read : int; (* sequential read detector *)
  mutable g_opens : int;
}

type t = {
  rpc : Netsim.Rpc.t;
  client : Netsim.Net.Host.t;
  server : Netsim.Net.Host.t;
  root : Wire.fh;
  config : config;
  engine : Sim.Engine.t;
  cache : Blockcache.Cache.t;
  gnodes : (int, gnode) Hashtbl.t;
  budget : Netsim.Rpc.budget option;
  mutable fs : Vfs.Fs.t option;
  mutable attr_probes : int;
}

let block_size = 4096

(* Partially applied as [call t ctx] to make a {!Wire.call} stub that
   stamps every RPC of one client operation with its causal context. *)
let call t ctx ~proc ?bulk args =
  Netsim.Rpc.call t.rpc ~ctx ~src:t.client ~dst:t.server
    ~prog:Nfs_server.prog ~proc ?budget:t.budget ?bulk args

let gnode t ino =
  match Hashtbl.find_opt t.gnodes ino with
  | Some g -> g
  | None -> invalid_arg "Nfs_client: unknown gnode"

let fh_of t (g : gnode) = { Wire.fsid = t.root.Wire.fsid; ino = g.g_ino; gen = g.g_gen }

let now t = Sim.Engine.now t.engine

(* Run one GFS operation under a fresh causal root (see
   {!Obs.Causal.root}): [f] receives the minted context and threads it
   through every RPC, cache and disk touch the operation makes. With
   tracing off there is no root span, so no [~now] closure is built. *)
let op t name f =
  if not (Obs.Trace.on ()) then f Obs.Causal.none
  else
    Obs.Causal.root
      ~now:(fun () -> now t)
      ~track:(Netsim.Net.Host.name t.client)
      ~name f

let proto_event t name args =
  if Obs.Trace.on () then
    Obs.Trace.instant ~ts:(now t) ~cat:"nfs" ~name
      ~track:(Netsim.Net.Host.name t.client)
      ~args ()

(* Install/update a gnode from attributes that just arrived. [probe]
   says whether this update counts as a consistency check: attributes
   piggybacked on lookup replies refresh the cached values but, as in
   the measured Ultrix client, do not reset the attribute-cache timer —
   only getattr probes (and write replies) do. This is what makes the
   getattr row of Table 5-2 nonzero even though every open follows a
   lookup. *)
let note_attrs ?(probe = true) t (attrs : Localfs.attrs) =
  match Hashtbl.find_opt t.gnodes attrs.ino with
  | Some g ->
      g.g_attrs <- attrs;
      if probe then g.g_fetched <- now t;
      g
  | None ->
      let g =
        {
          g_ino = attrs.ino;
          g_gen = attrs.gen;
          g_attrs = attrs;
          g_fetched = now t;
          g_cached_mtime = attrs.mtime;
          g_last_read = -2;
          g_opens = 0;
        }
      in
      Hashtbl.replace t.gnodes attrs.ino g;
      g

(* data-cache consistency: a changed mtime means another client (or a
   local truncate) modified the file; drop our copy *)
let check_mtime ?ctx t g =
  if g.g_attrs.Localfs.mtime <> g.g_cached_mtime then begin
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("host", Netsim.Net.Host.name t.client) ]
        "nfs_mtime_invalidations_total";
    proto_event t "mtime_invalidate" [ ("ino", Obs.Trace.Int g.g_ino) ];
    (* our own delayed partial blocks must not be lost *)
    Blockcache.Cache.flush_file ?ctx t.cache ~file:g.g_ino;
    Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
    Blockcache.Cache.invalidate_file t.cache ~file:g.g_ino;
    g.g_cached_mtime <- g.g_attrs.Localfs.mtime
  end

(* adaptive timeout: recently modified files are probed more often
   (3 s), stable ones rarely (up to 150 s) *)
let attr_timeout t g =
  let age = g.g_fetched -. g.g_attrs.Localfs.mtime in
  Float.max t.config.attr_min (Float.min t.config.attr_max (age /. 2.0))

let refresh_attrs ?(ctx = Obs.Causal.none) t g =
  if now t -. g.g_fetched > attr_timeout t g then begin
    t.attr_probes <- t.attr_probes + 1;
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("host", Netsim.Net.Host.name t.client) ]
        "nfs_attr_probes_total";
    proto_event t "attr_probe" [ ("ino", Obs.Trace.Int g.g_ino) ];
    let attrs = Wire.getattr (call t ctx) (fh_of t g) in
    g.g_attrs <- attrs;
    g.g_fetched <- now t;
    check_mtime ~ctx t g
  end

(* ---- GFS operations ---- *)

let vn_of t (g : gnode) =
  match t.fs with
  | Some fs -> { Vfs.Fs.fs; vid = g.g_ino }
  | None -> assert false

let do_lookup t ~dir name =
  op t "lookup" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  let _fh, attrs = Wire.lookup (call t ctx) ~dir:(fh_of t dirg) name in
  let g = note_attrs ~probe:false t attrs in
  check_mtime ~ctx t g;
  vn_of t g

let do_root t () =
  match Hashtbl.find_opt t.gnodes t.root.Wire.ino with
  | Some g -> vn_of t g
  | None ->
      op t "root" @@ fun ctx ->
      let attrs = Wire.getattr (call t ctx) t.root in
      vn_of t (note_attrs t attrs)

let do_create t ~dir name =
  op t "create" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  let _fh, attrs = Wire.create (call t ctx) ~dir:(fh_of t dirg) name in
  vn_of t (note_attrs t attrs)

let do_mkdir t ~dir name =
  op t "mkdir" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  let _fh, attrs = Wire.mkdir (call t ctx) ~dir:(fh_of t dirg) name in
  vn_of t (note_attrs t attrs)

let forget t ino =
  Blockcache.Cache.wait_pending t.cache ~file:ino;
  ignore (Blockcache.Cache.cancel_dirty t.cache ~file:ino);
  Hashtbl.remove t.gnodes ino

let do_remove t ~dir name =
  op t "remove" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  (* the blocks are already on their way to the server (write-through);
     all we can do is drop our copy *)
  (match Wire.lookup (call t ctx) ~dir:(fh_of t dirg) name with
  | fh, _ -> forget t fh.Wire.ino
  | exception Localfs.Error _ -> ());
  Wire.remove (call t ctx) ~dir:(fh_of t dirg) name

let do_rmdir t ~dir name =
  op t "rmdir" @@ fun ctx ->
  let dirg = gnode t dir.Vfs.Fs.vid in
  Wire.rmdir (call t ctx) ~dir:(fh_of t dirg) name

let do_rename t ~fromdir fname ~todir tname =
  op t "rename" @@ fun ctx ->
  let fg = gnode t fromdir.Vfs.Fs.vid in
  let tg = gnode t todir.Vfs.Fs.vid in
  Wire.rename (call t ctx) ~fromdir:(fh_of t fg) fname ~todir:(fh_of t tg)
    tname

let do_readdir t vn =
  op t "readdir" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  Wire.readdir (call t ctx) (fh_of t g)

let do_getattr t vn =
  op t "getattr" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  refresh_attrs ~ctx t g;
  g.g_attrs

let do_setattr t vn ~size =
  op t "setattr" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  (* truncation: our cached blocks (including delayed partials) are
     moot *)
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
  ignore (Blockcache.Cache.cancel_dirty t.cache ~file:g.g_ino);
  let attrs = Wire.setattr (call t ctx) (fh_of t g) ~size in
  g.g_attrs <- attrs;
  g.g_fetched <- now t;
  g.g_cached_mtime <- attrs.Localfs.mtime

let do_open t vn _mode =
  op t "open" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  g.g_opens <- g.g_opens + 1;
  proto_event t "open" [ ("ino", Obs.Trace.Int g.g_ino) ];
  (* a fresh open restarts the sequential-read detector, so reading
     block 0 counts as sequential and primes read-ahead *)
  g.g_last_read <- -1;
  (* the consistency check made at every open (Section 2.1) — free if
     the attribute cache entry is still fresh *)
  refresh_attrs ~ctx t g

let do_close t vn _mode =
  op t "close" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  g.g_opens <- g.g_opens - 1;
  proto_event t "close"
    [
      ("ino", Obs.Trace.Int g.g_ino);
      ("invalidate", Obs.Trace.Bool t.config.invalidate_on_close);
    ];
  (* synchronously finish all pending write-throughs (Section 2.1):
     flush delayed partial blocks, then drain the write-behind daemon *)
  Blockcache.Cache.flush_file ~ctx t.cache ~file:g.g_ino;
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino;
  if t.config.invalidate_on_close then
    (* the measured Ultrix client's bug (Section 5.2): it threw the
       cache away here, forcing re-reads after close/reopen *)
    Blockcache.Cache.invalidate_file t.cache ~file:g.g_ino

let do_read_block t vn ~index =
  op t "read" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  refresh_attrs ~ctx t g;
  if index * block_size >= g.g_attrs.Localfs.size then (0, 0)
  else begin
    let result = Blockcache.Cache.read ~ctx t.cache ~file:g.g_ino ~index in
    (* one-block read-ahead on sequential access *)
    if
      t.config.read_ahead
      && index = g.g_last_read + 1
      && (index + 1) * block_size < g.g_attrs.Localfs.size
      && Blockcache.Cache.peek t.cache ~file:g.g_ino ~index:(index + 1) = None
    then
      Sim.Engine.spawn t.engine ~name:"nfs.readahead" (fun () ->
          ignore (Blockcache.Cache.read t.cache ~file:g.g_ino ~index:(index + 1)));
    g.g_last_read <- index;
    result
  end

let do_write_block t vn ~index ~stamp ~len =
  op t "write" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  (* full blocks go to the write-behind daemon at once; partial blocks
     are delayed in hope of being filled (footnote 4) *)
  let mode = if len >= block_size then `Async else `Delayed in
  Blockcache.Cache.write ~ctx t.cache ~file:g.g_ino ~index ~stamp ~len mode;
  (* optimistic local size/mtime; authoritative values return on the
     write replies *)
  let size = max g.g_attrs.Localfs.size ((index * block_size) + len) in
  g.g_attrs <- { g.g_attrs with Localfs.size }

let do_fsync t vn =
  op t "fsync" @@ fun ctx ->
  let g = gnode t vn.Vfs.Fs.vid in
  Blockcache.Cache.flush_file ~ctx t.cache ~file:g.g_ino;
  Blockcache.Cache.wait_pending t.cache ~file:g.g_ino

let mount rpc ~client ~server ~root ?(config = default_config) ?(name = "nfs")
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
               Wire.read (call tt ctx) (fh_of tt g) ~index);
           write_block =
             (fun ~ctx ~file ~index ~stamp ~len ->
               let tt = Lazy.force t in
               let g = gnode tt file in
               match
                 Wire.write (call tt ctx) (fh_of tt g) ~index ~stamp ~len
               with
               | attrs ->
                   (* keep the attribute cache in step with our own
                      writes, so they do not look like someone else's
                      update *)
                   g.g_attrs <- attrs;
                   g.g_fetched <- Sim.Engine.now engine;
                   g.g_cached_mtime <- attrs.Localfs.mtime
               | exception Localfs.Error Localfs.Stale ->
                   (* removed while the write-behind was in flight *)
                   ());
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
         attr_probes = 0;
       })
  in
  let t = Lazy.force t in
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
let attr_probes t = t.attr_probes

(* oracle hook: NFS writes through, so only pending write-behinds and
   delayed partial blocks can still be client-side *)
let quiesce t = Blockcache.Cache.flush_all t.cache
