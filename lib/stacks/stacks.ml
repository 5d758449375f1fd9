type protocol =
  | Local
  | Nfs_proto of Nfs.Nfs_client.config
  | Snfs_proto of Snfs.Snfs_client.config
  | Rfs_proto of Rfs.Rfs_client.config
  | Kent_proto of Kentfs.Kent_client.config

let name = function
  | Local -> "local"
  | Nfs_proto _ -> "NFS"
  | Snfs_proto _ -> "SNFS"
  | Rfs_proto _ -> "RFS"
  | Kent_proto _ -> "Kent"

let of_string = function
  | "local" -> Ok Local
  | "nfs" -> Ok (Nfs_proto Nfs.Nfs_client.default_config)
  | "nfs-fixed" ->
      Ok
        (Nfs_proto
           { Nfs.Nfs_client.default_config with invalidate_on_close = false })
  | "snfs" -> Ok (Snfs_proto Snfs.Snfs_client.default_config)
  | "snfs-dc" ->
      Ok
        (Snfs_proto
           { Snfs.Snfs_client.default_config with delayed_close = true })
  | "rfs" -> Ok (Rfs_proto Rfs.Rfs_client.default_config)
  | "kent" -> Ok (Kent_proto Kentfs.Kent_client.default_config)
  | s -> Error (Printf.sprintf "unknown protocol %S" s)

let remote =
  [
    Nfs_proto Nfs.Nfs_client.default_config;
    Snfs_proto Snfs.Snfs_client.default_config;
    Rfs_proto Rfs.Rfs_client.default_config;
    Kent_proto Kentfs.Kent_client.default_config;
  ]

let strict = function Nfs_proto _ -> false | _ -> true

type client = {
  fs : Vfs.Fs.t;
  cache : Blockcache.Cache.t;
  quiesce : unit -> unit;
  snfs : Snfs.Snfs_client.t option;
}

(* the mount closure takes the host, name, cache_blocks and
   retry_budget overrides *)
type server = {
  service : Netsim.Rpc.service;
  snfs : Snfs.Snfs_server.t option;
  mount :
    Netsim.Net.Host.t -> string option -> int option -> float option -> client;
}

let service s = s.service
let snfs_server s = s.snfs

let mount s host ?name ?cache_blocks ?retry_budget () =
  s.mount host name cache_blocks retry_budget

(* a caller's override replaces the protocol's own setting *)
let pick override own = Option.value override ~default:own
let budget override own = if Option.is_some override then override else own

let serve rpc host ?recovery_grace ~fsid fs protocol =
  let remote ~service ?snfs mount = { service; snfs; mount } in
  match protocol with
  | Local -> invalid_arg "Stacks.serve: the local file system has no server"
  | Nfs_proto config ->
      let s = Nfs.Nfs_server.serve rpc host ~fsid fs in
      let root = Nfs.Nfs_server.root_fh s in
      remote ~service:(Nfs.Nfs_server.service s)
        (fun client name cache_blocks retry_budget ->
          let config =
            {
              config with
              cache_blocks = pick cache_blocks config.cache_blocks;
              retry_budget = budget retry_budget config.retry_budget;
            }
          in
          let c =
            Nfs.Nfs_client.mount rpc ~client ~server:host ~root ~config ?name ()
          in
          {
            fs = Nfs.Nfs_client.fs c;
            cache = Nfs.Nfs_client.cache c;
            quiesce = (fun () -> Nfs.Nfs_client.quiesce c);
            snfs = None;
          })
  | Snfs_proto config ->
      let s = Snfs.Snfs_server.serve rpc host ?recovery_grace ~fsid fs in
      let root = Snfs.Snfs_server.root_fh s in
      remote ~service:(Snfs.Snfs_server.service s) ~snfs:s
        (fun client name cache_blocks retry_budget ->
          let config =
            {
              config with
              cache_blocks = pick cache_blocks config.cache_blocks;
              retry_budget = budget retry_budget config.retry_budget;
            }
          in
          let c =
            Snfs.Snfs_client.mount rpc ~client ~server:host ~root ~config ?name
              ()
          in
          {
            fs = Snfs.Snfs_client.fs c;
            cache = Snfs.Snfs_client.cache c;
            quiesce = (fun () -> Snfs.Snfs_client.quiesce c);
            snfs = Some c;
          })
  | Rfs_proto config ->
      let s = Rfs.Rfs_server.serve rpc host ~fsid fs in
      let root = Rfs.Rfs_server.root_fh s in
      remote ~service:(Rfs.Rfs_server.service s)
        (fun client name cache_blocks retry_budget ->
          let config =
            {
              config with
              cache_blocks = pick cache_blocks config.cache_blocks;
              retry_budget = budget retry_budget config.retry_budget;
            }
          in
          let c =
            Rfs.Rfs_client.mount rpc ~client ~server:host ~root ~config ?name ()
          in
          {
            fs = Rfs.Rfs_client.fs c;
            cache = Rfs.Rfs_client.cache c;
            quiesce = (fun () -> Rfs.Rfs_client.quiesce c);
            snfs = None;
          })
  | Kent_proto config ->
      let s = Kentfs.Kent_server.serve rpc host ~fsid fs in
      let root = Kentfs.Kent_server.root_fh s in
      remote ~service:(Kentfs.Kent_server.service s)
        (fun client name cache_blocks retry_budget ->
          let config =
            {
              config with
              cache_blocks = pick cache_blocks config.cache_blocks;
              retry_budget = budget retry_budget config.retry_budget;
            }
          in
          let c =
            Kentfs.Kent_client.mount rpc ~client ~server:host ~root ~config
              ?name ()
          in
          {
            fs = Kentfs.Kent_client.fs c;
            cache = Kentfs.Kent_client.cache c;
            quiesce = (fun () -> Kentfs.Kent_client.quiesce c);
            snfs = None;
          })
