type config = {
  timeout : float;
  retries : int;
  backoff : float;
  client_cpu_per_call : float;
  server_cpu_per_call : float;
  cpu_per_kbyte : float;
}

let default_config =
  {
    timeout = 1.0;
    retries = 5;
    backoff = 2.0;
    client_cpu_per_call = 0.002;
    server_cpu_per_call = 0.002;
    cpu_per_kbyte = 0.003;
  }

exception Timeout of { prog : string; proc : string }

exception Server_unavailable of { prog : string; proc : string; waited : float }

(* Retry budget for callers that must survive a server crash window
   but not retry forever: whole calls are re-issued with bounded
   exponential backoff until the budget of wall-clock (simulated)
   seconds is spent, then the typed failure surfaces. *)
type budget = {
  give_up_after : float;
  initial_backoff : float;
  max_backoff : float;
}

let budget ?(initial_backoff = 0.5) ?(max_backoff = 30.0) give_up_after =
  if give_up_after <= 0.0 then
    invalid_arg "Rpc.budget: give_up_after must be positive";
  if initial_backoff <= 0.0 then
    invalid_arg "Rpc.budget: initial_backoff must be positive";
  { give_up_after; initial_backoff; max_backoff = Float.max initial_backoff max_backoff }

type reply = { data : bytes; bulk : int }

(* [ctx] is the causal context of the client operation this request
   serves (Obs.Causal.none for background traffic). It rides the
   request like [caller] does — an explicit field of the simulated
   wire header, never ambient state — so handlers can tag the work
   they do, and the work they induce, with the operation that caused
   it. *)
type handler =
  caller:Net.Host.t -> ctx:Obs.Causal.t -> proc:string -> Xdr.Dec.t -> reply

(* Duplicate-request cache, direct-mapped by xid like the bounded
   "recent request cache" of real NFS servers. xids come from the
   transport's single monotonic counter, so a slot collision only
   evicts an entry [drc_slots] xids older — far outside any
   retransmission window — and the cache stays a fixed-size array
   instead of a hash table that grows (and rehashes) with every call
   ever made. [drc_xid.(i) = -1] marks a free slot; [drc_reply.(i) ==
   executing] under a live xid means the call is still executing. *)
let drc_slots = 4096

(* Sentinel replies, compared by [==]: [executing] marks a DRC entry
   whose call is still running, [no_reply] a client call no reply has
   reached yet. Sentinels instead of options keep both the cache and
   the call record free of per-reply [Some] boxes. Both are immutable
   ([reply] has no mutable field, and [Bytes.empty] has no byte to
   write), so domains can share them — snfs-lint: allow domain-safety *)
let executing = { data = Bytes.empty; bulk = 0 }

(* snfs-lint: allow domain-safety — immutable sentinel, as above *)
let no_reply = { data = Bytes.empty; bulk = 0 }

(* Everything the request path needs per procedure, resolved once per
   procedure instead of once per request: the display name (a string
   concatenation), the operation-count cell (a string-hashed counter
   lookup) and, once the first reply has come back, the client-side
   success-latency sink (a tuple-keyed histogram lookup). *)
type proc_info = {
  pname : string; (* "prog.proc" *)
  count : int ref; (* this proc's cell in the service's [counts] *)
  mutable lat_ok : Stats.Histogram.t option;
      (* created on first successful reply, exactly where the slow
         path would have created it, so procedures that only ever time
         out don't grow a spurious empty success histogram *)
}

type service = {
  prog : string;
  host : Net.Host.t;
  mutable handler : handler;
  pool : Sim.Semaphore.t;
  drc_xid : int array;
  drc_reply : reply array;
  mutable drc_used : int; (* occupied slots, for the gauge poll *)
  procs : (string, proc_info) Hashtbl.t;
  counts : Stats.Counter.t;
  mutable executed : int; (* calls actually run (duplicates suppressed) *)
  mutable duplicates : int; (* retransmissions absorbed by the dup cache *)
  mutable on_restart : (unit -> unit) option;
  mutable epoch_seen : int;
}

type t = {
  net : Net.t;
  config : config;
  services : (int * string, service) Hashtbl.t; (* (host addr, prog) *)
  latencies : Obs.Latency.t;
  (* one-slot memo for the per-call service lookup: every client in a
     testbed talks to the same server address and program, so the
     tuple-keyed hash lookup hits this slot almost always. [serve]
     clears it, so a re-registered service is never seen stale. *)
  mutable memo_addr : int;
  mutable memo_prog : string;
  mutable memo_svc : service option;
  mutable next_xid : int;
  mutable retransmissions : int;
  mutable in_flight : int;
}

let create net ?(config = default_config) () =
  let t =
    {
      net;
      config;
      services = Hashtbl.create 8;
      latencies = Obs.Latency.create ();
      memo_addr = -1;
      memo_prog = "";
      memo_svc = None;
      next_xid = 1;
      retransmissions = 0;
      in_flight = 0;
    }
  in
  Obs.Metrics.register_poll "rpc_client_in_flight" (fun () ->
      float_of_int t.in_flight);
  t

let net t = t.net
let config t = t.config
let retransmissions t = t.retransmissions
let latencies t = t.latencies

let serve t host ~prog ~threads handler =
  let key = (Net.Host.addr host, prog) in
  match Hashtbl.find_opt t.services key with
  | Some svc ->
      svc.handler <- handler;
      svc
  | None ->
      let svc =
        {
          prog;
          host;
          handler;
          pool = Sim.Semaphore.create (Net.engine t.net) threads;
          drc_xid = Array.make drc_slots (-1);
          drc_reply = Array.make drc_slots executing;
          drc_used = 0;
          procs = Hashtbl.create 16;
          counts = Stats.Counter.create ();
          executed = 0;
          duplicates = 0;
          on_restart = None;
          epoch_seen = Net.Host.boot_epoch host;
        }
      in
      Hashtbl.replace t.services key svc;
      t.memo_svc <- None;
      Obs.Metrics.register_poll
        ~labels:[ ("host", Net.Host.name host); ("prog", prog) ]
        "rpc_dup_cache_entries"
        (fun () -> float_of_int svc.drc_used);
      svc

let service_host svc = svc.host
let service_prog svc = svc.prog
let counters svc = svc.counts
let executed_count svc = svc.executed
let duplicate_count svc = svc.duplicates
let set_on_restart svc f = svc.on_restart <- Some f
let thread_pool svc = svc.pool

let payload_cpu t bytes = t.config.cpu_per_kbyte *. (float_of_int bytes /. 1024.)

let server_now svc = Sim.Engine.now (Net.Host.engine svc.host)

(* [Hashtbl.find], not [find_opt]: the hit, taken on every call after
   a procedure's first, then allocates no option *)
let proc_info svc proc =
  match Hashtbl.find svc.procs proc with
  | i -> i
  | exception Not_found ->
      let i =
        {
          pname = svc.prog ^ "." ^ proc;
          count = Stats.Counter.cell svc.counts proc;
          lat_ok = None;
        }
      in
      Hashtbl.replace svc.procs proc i;
      i

let note_duplicate svc ~trace_name ~pname ~xid =
  svc.duplicates <- svc.duplicates + 1;
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:[ ("host", Net.Host.name svc.host); ("prog", svc.prog) ]
      "rpc_duplicates_total";
  if Obs.Trace.on () then
    Obs.Trace.instant ~ts:(server_now svc) ~cat:"rpc" ~name:trace_name
      ~track:(Net.Host.name svc.host)
      ~args:[ ("proc", Obs.Trace.Str pname); ("xid", Obs.Trace.Int xid) ]
      ()

(* One client call, start to finish. The client process, the delivery
   of each transmission, each execution at the server and the delivery
   of the reply all work from this record through the top-level
   functions below, so a round trip builds one record instead of a web
   of closures each capturing its own copy of the call's fields. *)
type call = {
  rpc : t;
  ctx : Obs.Causal.t;
  src : Net.Host.t;
  dst : Net.Host.t;
  prog : string;
  proc : string;
  args : bytes;
  bulk : int;
  xid : int;
  svc : service option; (* [None]: no such program at [dst] *)
  info : proc_info; (* [svc]'s entry for [proc] *)
  issued : float;
  sp : Obs.Trace.span;
  mutable reply : reply; (* [no_reply] until the first reply arrives *)
  wait : Sim.Engine.slot;
      (* the client process, parked from transmission until the reply
         or the attempt's retransmission timer wakes it *)
}

(* a reply travels as the pair of its call and itself *)
let deliver_reply (c, reply) =
  if c.reply == no_reply then begin
    if Obs.Trace.on () then
      Obs.Trace.instant
        ~ts:(Sim.Engine.now (Net.engine c.rpc.net))
        ~cat:"rpc" ~name:"reply" ~track:(Net.Host.name c.src)
        ~args:[ ("xid", Obs.Trace.Int c.xid) ]
        ();
    c.reply <- reply;
    if Sim.Engine.parked c.wait then Sim.Engine.unpark c.wait
  end

let send_reply c reply =
  Net.send c.rpc.net ~src:c.dst ~dst:c.src
    ~bytes:(Bytes.length reply.data + reply.bulk)
    ~deliver:deliver_reply (c, reply)

(* The body of one executed request of call [c], on a server thread of
   [svc] (the service [c.svc] names). [arrival] is when the request
   reached the server, for the traced queueing delay; 0 untraced. *)
let run_request c svc arrival =
  let t = c.rpc in
  let count = c.info.count in
  count := !count + 1;
  svc.executed <- svc.executed + 1;
  (* same site as the legacy Stats.Counter path, so the registry and
     the counter tables can never disagree *)
  if Obs.Metrics.on () then
    Obs.Metrics.incr
      ~labels:
        [
          ("host", Net.Host.name svc.host);
          ("prog", svc.prog);
          ("proc", c.proc);
        ]
      "rpc_server_calls_total";
  let sp =
    if Obs.Trace.on () && Obs.Causal.keep c.ctx then
      (* [queued] = dispatch-to-thread wait, so the analyzer can split
         server queueing from server compute *)
      Obs.Trace.span ~ts:(server_now svc) ~cat:"rpc"
        ~name:("exec " ^ svc.prog ^ "." ^ c.proc)
        ~track:(Net.Host.name svc.host)
        ~args:
          (Obs.Causal.arg c.ctx
             [
               ("xid", Obs.Trace.Int c.xid);
               ("queued", Obs.Trace.Float (server_now svc -. arrival));
             ])
        ()
    else Obs.Trace.none
  in
  Net.Host.use_cpu svc.host
    (t.config.server_cpu_per_call
    +. payload_cpu t (Bytes.length c.args + c.bulk));
  let reply =
    svc.handler ~caller:c.src ~ctx:c.ctx ~proc:c.proc (Xdr.Dec.of_bytes c.args)
  in
  Net.Host.use_cpu svc.host (payload_cpu t (Bytes.length reply.data + reply.bulk));
  if sp != Obs.Trace.none then Obs.Trace.finish ~ts:(server_now svc) sp;
  (* publish only if the slot still belongs to this xid: a colliding
     newer request may have evicted it while the handler ran *)
  let slot = c.xid land (drc_slots - 1) in
  if svc.drc_xid.(slot) = c.xid then svc.drc_reply.(slot) <- reply;
  send_reply c reply

(* one server thread for the request's whole execution *)
let execute c arrival =
  match c.svc with
  | None -> () (* unreachable: only a served call is executed *)
  | Some svc -> (
      let pool = svc.pool in
      Sim.Semaphore.acquire pool;
      match run_request c svc arrival with
      | () -> Sim.Semaphore.release pool
      | exception e ->
          Sim.Semaphore.release pool;
          raise e)

(* Runs on the server when a request message of call [c] arrives. *)
let handle_request svc c =
  (* volatile server state does not survive a reboot *)
  let epoch = Net.Host.boot_epoch svc.host in
  if epoch <> svc.epoch_seen then begin
    svc.epoch_seen <- epoch;
    Array.fill svc.drc_xid 0 drc_slots (-1);
    Array.fill svc.drc_reply 0 drc_slots executing;
    svc.drc_used <- 0;
    match svc.on_restart with None -> () | Some f -> f ()
  end;
  let xid = c.xid in
  let slot = xid land (drc_slots - 1) in
  if svc.drc_xid.(slot) = xid then begin
    let cached = svc.drc_reply.(slot) in
    if cached == executing then
      (* retransmission of a call being served: drop *)
      note_duplicate svc ~trace_name:"dup_drop" ~pname:c.info.pname ~xid
    else begin
      (* replay cached reply *)
      note_duplicate svc ~trace_name:"dup_replay" ~pname:c.info.pname ~xid;
      send_reply c cached
    end
  end
  else begin
    if svc.drc_xid.(slot) = -1 then svc.drc_used <- svc.drc_used + 1;
    svc.drc_xid.(slot) <- xid;
    svc.drc_reply.(slot) <- executing;
    let engine = Net.Host.engine svc.host in
    (* the arrival time is taken only when tracing: a float captured by
       the untraced closure would be boxed, 3 more words per executed
       request *)
    if Obs.Trace.on () then begin
      let arrival = server_now svc in
      Sim.Engine.spawn engine ~name:c.info.pname (fun () -> execute c arrival)
    end
    else
      Sim.Engine.spawn engine ~name:c.info.pname
        (* one spawned task per executed request is the DRC's budgeted
           cost; duplicates were filtered above —
           snfs-lint: allow hot-alloc *)
        (fun () -> execute c 0.0)
  end

let deliver_request c =
  match c.svc with
  | Some svc -> handle_request svc c
  | None -> () (* no such program: silence, client times out *)

let transmit c =
  Net.send c.rpc.net ~src:c.src ~dst:c.dst
    ~bytes:(Bytes.length c.args + c.bulk)
    ~deliver:deliver_request c

(* The retransmission timer of one attempt. Only the current attempt's
   timer can find the client still parked: an earlier attempt's timer
   is what started the current attempt, and once a reply has woken the
   client no later attempt is made. *)
let expire c = if Sim.Engine.parked c.wait then Sim.Engine.unpark c.wait

(* Enough retries that transient packet loss is very unlikely to be
   mistaken for a crashed client, but still finishing (~31 s) before the
   default client-side schedule (~63 s) would time the opener out. *)
let impatient config = { config with retries = 4 }

(* one tuple-keyed service lookup per call, not one per transmission
   (a service registered between retransmissions of the same call is
   not a case the simulation produces) *)
let lookup_service t dst_addr prog =
  match t.memo_svc with
  | Some _ when t.memo_addr = dst_addr && String.equal t.memo_prog prog ->
      t.memo_svc
  | _ ->
      let s = Hashtbl.find_opt t.services (dst_addr, prog) in
      (match s with
      | Some _ ->
          t.memo_addr <- dst_addr;
          t.memo_prog <- prog;
          t.memo_svc <- s
      | None -> ());
      s

let replied c n =
  let t = c.rpc in
  Net.Host.use_cpu c.src
    (payload_cpu t (Bytes.length c.reply.data + c.reply.bulk));
  let now = Sim.Engine.now (Net.engine t.net) in
  let h =
    match c.info.lat_ok with
    | Some h -> h
    | None ->
        (* first success for this procedure: resolve the histogram
           through the slow path (which registers it) and cache it *)
        let h = Obs.Latency.histogram t.latencies ~prog:c.prog ~proc:c.proc in
        c.info.lat_ok <- Some h;
        h
  in
  Stats.Histogram.add h (now -. c.issued);
  if c.sp != Obs.Trace.none then
    Obs.Trace.finish ~ts:now c.sp
      ~args:[ ("status", Obs.Trace.Str "ok"); ("retries", Obs.Trace.Int n) ];
  c.reply.data

let give_up c =
  let t = c.rpc and prog = c.prog and proc = c.proc in
  let now = Sim.Engine.now (Net.engine t.net) in
  (* the failed call is part of the latency story too: record the time
     wasted before giving up under its own outcome *)
  Obs.Latency.record t.latencies ~outcome:Obs.Latency.Timeout ~prog ~proc
    (now -. c.issued);
  if Obs.Metrics.on () then
    Obs.Metrics.incr ~labels:[ ("prog", prog); ("proc", proc) ] "rpc_timeouts_total";
  if Obs.Trace.on () then
    Obs.Trace.instant ~ts:now ~cat:"rpc" ~name:"timeout" ~track:(Net.Host.name c.src)
      ~args:
        [ ("proc", Obs.Trace.Str (prog ^ "." ^ proc)); ("xid", Obs.Trace.Int c.xid) ]
      ();
  Obs.Trace.finish ~ts:now c.sp
    ~args:
      (if Obs.Trace.on () then [ ("status", Obs.Trace.Str "timeout") ] else []);
  raise (Timeout { prog; proc })

let rec attempt c config n timeout =
  let engine = Net.engine c.rpc.net in
  transmit c;
  if c.reply == no_reply then begin
    Sim.Engine.timer engine timeout (fun () -> expire c);
    Sim.Engine.park engine c.wait
  end;
  if c.reply != no_reply then replied c n
  else if n >= config.retries then give_up c
  else begin
    let t = c.rpc in
    t.retransmissions <- t.retransmissions + 1;
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("prog", c.prog); ("proc", c.proc) ]
        "rpc_retransmits_total";
    if Obs.Trace.on () then
      Obs.Trace.instant ~ts:(Sim.Engine.now engine) ~cat:"rpc" ~name:"retransmit"
        ~track:(Net.Host.name c.src)
        ~args:
          [ ("proc", Obs.Trace.Str (c.prog ^ "." ^ c.proc));
            ("xid", Obs.Trace.Int c.xid);
            ("attempt", Obs.Trace.Int (n + 1)) ]
        ();
    attempt c config (n + 1) (timeout *. config.backoff)
  end

let call_once t config ~ctx ~src ~dst ~prog ~proc ~bulk args =
  let engine = Net.engine t.net in
  let xid = t.next_xid in
  t.next_xid <- xid + 1;
  let svc = lookup_service t (Net.Host.addr dst) prog in
  let info =
    match svc with
    | Some s -> proc_info s proc
    | None -> { pname = prog ^ "." ^ proc; count = ref 0; lat_ok = None }
  in
  let issued = Sim.Engine.now engine in
  let sp =
    if Obs.Trace.on () && Obs.Causal.keep ctx then
      Obs.Trace.span ~ts:issued ~cat:"rpc" ~name:(prog ^ "." ^ proc)
        ~track:(Net.Host.name src)
        ~args:
          (Obs.Causal.arg ctx
             [ ("xid", Obs.Trace.Int xid);
               ("dst", Obs.Trace.Str (Net.Host.name dst));
               ("bytes", Obs.Trace.Int (Bytes.length args + bulk)) ])
        ()
    else Obs.Trace.none
  in
  let c =
    {
      rpc = t;
      ctx;
      src;
      dst;
      prog;
      proc;
      args;
      bulk;
      xid;
      svc;
      info;
      issued;
      sp;
      reply = no_reply;
      wait = Sim.Engine.slot ();
    }
  in
  Net.Host.use_cpu src
    (config.client_cpu_per_call +. payload_cpu t (Bytes.length args + bulk));
  (* manual unwind, not Fun.protect: the protect frame and its finally
     closure are measurable on a path taken once per RPC *)
  t.in_flight <- t.in_flight + 1;
  match attempt c config 0 config.timeout with
  | data ->
      t.in_flight <- t.in_flight - 1;
      data
  | exception e ->
      t.in_flight <- t.in_flight - 1;
      raise e

let call t ?config ?(ctx = Obs.Causal.none) ~src ~dst ~prog ~proc ?budget:b
    ?(bulk = 0) args =
  let config = match config with Some c -> c | None -> t.config in
  match b with
  | None -> call_once t config ~ctx ~src ~dst ~prog ~proc ~bulk args
  | Some b ->
      (* each round is a complete call (fresh xid, its own span and
         latency record); between rounds the caller sleeps out a
         bounded exponential backoff. Rounds stop as soon as the next
         backoff would not fit in the budget. *)
      let engine = Net.engine t.net in
      let started = Sim.Engine.now engine in
      let track = Net.Host.name src in
      let rec go backoff =
        match call_once t config ~ctx ~src ~dst ~prog ~proc ~bulk args with
        | data -> data
        | exception Timeout _ ->
            let waited = Sim.Engine.now engine -. started in
            if waited +. backoff >= b.give_up_after then begin
              if Obs.Metrics.on () then
                Obs.Metrics.incr
                  ~labels:[ ("prog", prog); ("proc", proc) ]
                  "rpc_unavailable_total";
              if Obs.Trace.on () then
                Obs.Trace.instant
                  ~ts:(Sim.Engine.now engine)
                  ~cat:"rpc" ~name:"unavailable" ~track
                  ~args:
                    [ ("proc", Obs.Trace.Str (prog ^ "." ^ proc));
                      ("waited", Obs.Trace.Float waited) ]
                  ();
              raise (Server_unavailable { prog; proc; waited })
            end
            else begin
              if Obs.Metrics.on () then
                Obs.Metrics.incr
                  ~labels:[ ("prog", prog); ("proc", proc) ]
                  "rpc_budget_retries_total";
              Sim.Engine.sleep engine backoff;
              go (Float.min (backoff *. 2.0) b.max_backoff)
            end
      in
      go b.initial_backoff
