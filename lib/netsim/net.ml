type params = {
  latency : float;
  bandwidth : float;
  header_bytes : int;
  jitter : float;
}

let default_params =
  { latency = 0.0003; bandwidth = 1.25e6; header_bytes = 64; jitter = 0.0 }

type host = {
  hnet : t;
  hname : string;
  haddr : int;
  hcpu : Sim.Resource.t;
  hcpu_factor : float;
  mutable hup : bool;
  mutable hepoch : int;
}

and t = {
  engine : Sim.Engine.t;
  mutable params : params;
  medium : Sim.Resource.t;
  rand : Sim.Rand.t;
  mutable drop_prob : float;
  mutable hosts : host list; (* newest first; addr = position from end *)
  mutable next_addr : int;
  mutable messages_sent : int;
  mutable messages_dropped : int;
  mutable bytes_sent : int;
  mutable partitions : (int * int) list; (* normalized (lo, hi) addr pairs *)
}

let create engine ?(params = default_params) ?(seed = 0x5EEDL) () =
  {
    engine;
    params;
    medium = Sim.Resource.create engine ~capacity:1 "net.medium";
    rand = Sim.Rand.create seed;
    drop_prob = 0.0;
    hosts = [];
    next_addr = 0;
    messages_sent = 0;
    messages_dropped = 0;
    bytes_sent = 0;
    partitions = [];
  }

let engine t = t.engine

let set_drop_probability t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Net.set_drop_probability";
  t.drop_prob <- p

let set_jitter t j =
  if j < 0.0 then invalid_arg "Net.set_jitter";
  t.params <- { t.params with jitter = j }

let messages_sent t = t.messages_sent
let messages_dropped t = t.messages_dropped
let bytes_sent t = t.bytes_sent

module Host = struct
  type nonrec net = t [@@warning "-34"]

  type t = host

  let create net ?(cpu_factor = 1.0) name =
    let h =
      {
        hnet = net;
        hname = name;
        haddr = net.next_addr;
        hcpu = Sim.Resource.create net.engine ~capacity:1 (name ^ ".cpu");
        hcpu_factor = cpu_factor;
        hup = true;
        hepoch = 0;
      }
    in
    net.next_addr <- net.next_addr + 1;
    net.hosts <- h :: net.hosts;
    h

  let name h = h.hname
  let addr h = h.haddr
  let net h = h.hnet
  let engine h = h.hnet.engine
  let cpu h = h.hcpu
  let cpu_factor h = h.hcpu_factor

  let use_cpu h seconds =
    if seconds > 0.0 then Sim.Resource.use h.hcpu (seconds *. h.hcpu_factor)

  let is_up h = h.hup
  let crash h = h.hup <- false

  let reboot h =
    h.hup <- true;
    h.hepoch <- h.hepoch + 1

  let boot_epoch h = h.hepoch

  let by_addr net addr =
    match List.find_opt (fun h -> h.haddr = addr) net.hosts with
    | Some h -> h
    | None -> invalid_arg (Printf.sprintf "Net.Host.by_addr: no host %d" addr)
end

let pair a b = if a.haddr <= b.haddr then (a.haddr, b.haddr) else (b.haddr, a.haddr)

(* Almost always nothing is cut: answer that without building the pair
   or calling polymorphic [List.mem]. *)
let partitioned t a b =
  match t.partitions with
  | [] -> false
  | ps -> List.mem (pair a b) ps

let partition_event t name a b =
  if Obs.Trace.on () then
    Obs.Trace.instant ~ts:(Sim.Engine.now t.engine) ~cat:"net" ~name
      ~track:"net"
      ~args:
        [ ("a", Obs.Trace.Str a.hname); ("b", Obs.Trace.Str b.hname) ]
      ()

let partition t a b =
  if not (partitioned t a b) then begin
    t.partitions <- pair a b :: t.partitions;
    partition_event t "partition" a b
  end

let heal t a b =
  if partitioned t a b then begin
    t.partitions <- List.filter (fun p -> p <> pair a b) t.partitions;
    partition_event t "heal" a b
  end

(* One message in flight, with the delivery function and its payload
   rather than a delivery closure. One event closure over this record
   serves as both the transmission-end event and the arrival event;
   [on_wire] says which of the two is firing. *)
type 'a message = {
  msrc : host;
  mdst : host;
  wire_bytes : int;
  dropped : bool; (* decided at send time *)
  deliver : 'a -> unit;
  payload : 'a;
  mutable on_wire : bool; (* until the transmission ends *)
}

let arrive m =
  let t = m.msrc.hnet in
  if m.dropped then begin
    t.messages_dropped <- t.messages_dropped + 1;
    if Obs.Metrics.on () then
      Obs.Metrics.incr
        ~labels:[ ("host", m.msrc.hname) ]
        "net_messages_dropped_total";
    if Obs.Trace.on () then
      Obs.Trace.instant ~ts:(Sim.Engine.now t.engine) ~cat:"net" ~name:"drop"
        ~track:"net"
        ~args:
          [ ("src", Obs.Trace.Str m.msrc.hname);
            ("dst", Obs.Trace.Str m.mdst.hname);
            ("bytes", Obs.Trace.Int m.wire_bytes) ]
        ()
  end
  else if m.mdst.hup then m.deliver m.payload

(* The jitter draw happens at transmission end, so the random stream
   follows the order in which transmissions finish. [ev] is the
   message's own event closure, queued again for the arrival. *)
let step m ev =
  if m.on_wire then begin
    m.on_wire <- false;
    let t = m.msrc.hnet in
    let delay =
      t.params.latency
      +. (if t.params.jitter > 0.0 then Sim.Rand.float t.rand *. t.params.jitter
          else 0.0)
    in
    Sim.Engine.after t.engine delay ev
  end
  else arrive m

let send t ~src ~dst ~bytes ~deliver payload =
  if bytes < 0 then invalid_arg "Net.send: negative size";
  if not src.hup then () (* a dead host transmits nothing *)
  else begin
    t.messages_sent <- t.messages_sent + 1;
    let wire_bytes = bytes + t.params.header_bytes in
    t.bytes_sent <- t.bytes_sent + wire_bytes;
    if Obs.Metrics.on () then begin
      Obs.Metrics.incr ~labels:[ ("host", src.hname) ] "net_messages_total";
      Obs.Metrics.incr
        ~labels:[ ("host", src.hname) ]
        ~n:wire_bytes "net_bytes_total"
    end;
    let dropped =
      partitioned t src dst
      || (t.drop_prob > 0.0 && Sim.Rand.float t.rand < t.drop_prob)
    in
    if Obs.Trace.on () then
      Obs.Trace.instant ~ts:(Sim.Engine.now t.engine) ~cat:"net" ~name:"send"
        ~track:src.hname
        ~args:
          [ ("dst", Obs.Trace.Str dst.hname);
            ("bytes", Obs.Trace.Int wire_bytes) ]
        ();
    (* Transmission occupies the shared medium. No process per message:
       the medium is a FIFO reservation (Resource.reserve), and the
       transmission end + propagation delay are plain scheduled events.
       A per-message fiber here was the single biggest allocator in an
       RPC round trip. *)
    let finish =
      Sim.Resource.reserve t.medium
        (float_of_int wire_bytes /. t.params.bandwidth)
    in
    let m =
      {
        msrc = src;
        mdst = dst;
        wire_bytes;
        dropped;
        deliver;
        payload;
        on_wire = true;
      }
    in
    let rec ev () = step m ev in
    Sim.Engine.at t.engine finish ev
  end
