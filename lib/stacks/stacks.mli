(** The protocol-stack registry: the one place that knows how to stand
    up each file-system protocol — NFS, Spritely NFS, and the RFS and
    Kent baselines of Section 2.5 — on a simulated server and its
    clients. Experiments, the crash campaign and the consistency
    oracle all build their worlds through {!serve} and {!mount}, so
    every comparison runs the four stacks on one identical testbed. *)

type protocol =
  | Local  (** the client's own disk; no server *)
  | Nfs_proto of Nfs.Nfs_client.config
  | Snfs_proto of Snfs.Snfs_client.config
  | Rfs_proto of Rfs.Rfs_client.config
  | Kent_proto of Kentfs.Kent_client.config

(** Display name: ["local"], ["NFS"], ["SNFS"], ["RFS"] or ["Kent"]. *)
val name : protocol -> string

(** The command-line names: [local], [nfs], [nfs-fixed] (no
    invalidate-on-close bug), [snfs], [snfs-dc] (delayed close),
    [rfs] and [kent]. *)
val of_string : string -> (protocol, string) result

(** The four remote stacks with their default configurations, in the
    order NFS, SNFS, RFS, Kent. *)
val remote : protocol list

(** Does the protocol promise zero stale reads under serialized
    sharing? [false] only for NFS, whose attribute-cache staleness is
    the paper's documented divergence (Section 2.1). *)
val strict : protocol -> bool

(** A protocol server exporting one local file system. *)
type server

(** [serve rpc host ~fsid fs protocol] exports [fs] from [host].
    [recovery_grace] is the SNFS post-reboot grace period (Section
    2.4); the other stacks ignore it. Raises [Invalid_argument] for
    {!Local}. *)
val serve :
  Netsim.Rpc.t ->
  Netsim.Net.Host.t ->
  ?recovery_grace:float ->
  fsid:int ->
  Localfs.t ->
  protocol ->
  server

(** The server's RPC service (its per-procedure counters, thread pool
    and reboot hooks). *)
val service : server -> Netsim.Rpc.service

(** The SNFS server handle, for the laundromat and lifecycle queries
    ([None] for the other stacks). *)
val snfs_server : server -> Snfs.Snfs_server.t option

(** A mounted client. [quiesce] forces its dirty blocks back to the
    server (the consistency oracle's hook); [snfs] is the SNFS client
    handle, for its keepalive daemon ([None] for the other stacks). *)
type client = {
  fs : Vfs.Fs.t;
  cache : Blockcache.Cache.t;
  quiesce : unit -> unit;
  snfs : Snfs.Snfs_client.t option;
}

(** [mount server host ()] mounts the server's root on [host] with the
    protocol's configuration, overriding its [cache_blocks] and
    [retry_budget] when given. [name] labels the client's processes
    (default: the protocol's own). *)
val mount :
  server ->
  Netsim.Net.Host.t ->
  ?name:string ->
  ?cache_blocks:int ->
  ?retry_budget:float ->
  unit ->
  client
