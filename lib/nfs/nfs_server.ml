let prog = "nfs"

type t = {
  core : Wire.server_core;
  host : Netsim.Net.Host.t;
  service : Netsim.Rpc.service;
}

let serve rpc host ?(threads = 4) ~fsid fs =
  let core = Wire.make_server_core ~fsid fs () in
  let handler ~caller ~ctx ~proc dec =
    (* open/close get the Stale reply: this is how a hybrid client
       discovers it is not talking to SNFS (Section 6.1) *)
    Wire.handle_basic core ~caller:(Netsim.Net.Host.addr caller) ~ctx ~proc
      dec
  in
  let service = Netsim.Rpc.serve rpc host ~prog ~threads handler in
  { core; host; service }

let root_fh t = Wire.root_fh t.core
let service t = t.service
let counters t = Netsim.Rpc.counters t.service
