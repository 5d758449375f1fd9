(* Allocation-regression tests for the zero-allocation hot paths
   (DESIGN.md section 11).

   The dispatch loop's event-queue cycle and XDR round trips on reused
   buffers must allocate exactly zero minor words: these run tens of
   thousands of times per simulated second, and in Domain-parallel
   campaigns every domain's minor collection stops all domains, so a
   "small" per-event allocation is paid twice over.

   [Gc.minor_words] itself returns a boxed float, so each measurement
   is calibrated against an [ignore]-only baseline; a true zero-
   allocation path measures the same delta as doing nothing at all.
   Allocation accounting is only exact on the native-code backend, so
   the tests are skipped under bytecode.

   The suspension and RPC round-trip paths cannot be free (a blocked
   process is a continuation, and every event is a closure), so they
   get upper-bound budgets instead, measured the same way. The budgets
   sit a little above what the paths allocate today (DESIGN.md section
   11.1, rule 8, gives the figures): tight enough that bringing back a
   per-suspension closure or a per-call [Some] box fails here. *)

let native =
  match Sys.backend_type with
  | Sys.Native -> true
  | Sys.Bytecode | Sys.Other _ -> false

(* minor words allocated by [f ()], net of the measurement's own
   constant overhead *)
let measure f =
  let baseline =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity ());
    let w1 = Gc.minor_words () in
    w1 -. w0
  in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  (w1 -. w0) -. baseline

let check_zero_alloc name f =
  if native then begin
    (* warm up: first calls may grow arrays or fill caches *)
    f ();
    let words = measure f in
    Alcotest.(check (float 0.0)) (name ^ " allocates nothing") 0.0 words
  end

(* The measured loops pass literal float times: a fresh float (from
   [float_of_int], arithmetic, or a float-array read) is boxed at a
   non-inlined call site, which is caller-side allocation and would
   mask what these tests pin down — that the queue itself allocates
   nothing. The engine's dispatch loop passes sums of floats, but those
   two boxed words per push are the caller's, not the queue's. *)

let push_mixed q i =
  match i land 3 with
  | 0 -> Sim.Eventq.push q ~time:3.0 ~seq:i Sim.Eventq.nop
  | 1 -> Sim.Eventq.push q ~time:1.0 ~seq:i Sim.Eventq.nop
  | 2 -> Sim.Eventq.push q ~time:2.0 ~seq:i Sim.Eventq.nop
  | _ -> Sim.Eventq.push q ~time:0.0 ~seq:i Sim.Eventq.nop

let test_eventq_cycle () =
  let q = Sim.Eventq.create () in
  (* push beyond the initial capacity so the arrays are fully grown
     before measurement; drain back to empty *)
  for i = 0 to 255 do
    push_mixed q i
  done;
  while not (Sim.Eventq.is_empty q) do
    ignore (Sim.Eventq.pop_fn q : unit -> unit)
  done;
  let cell = [| 0.0 |] in
  check_zero_alloc "eventq push/pop cycle" (fun () ->
      for i = 0 to 99 do
        push_mixed q i
      done;
      for _ = 1 to 100 do
        let fn = Sim.Eventq.pop_until q infinity cell in
        assert (fn == Sim.Eventq.nop)
      done;
      assert (Sim.Eventq.is_empty q))

let test_eventq_pop_fn () =
  let q = Sim.Eventq.create () in
  for i = 0 to 63 do
    push_mixed q i
  done;
  while not (Sim.Eventq.is_empty q) do
    ignore (Sim.Eventq.pop_fn q : unit -> unit)
  done;
  check_zero_alloc "eventq pop_fn drain" (fun () ->
      for i = 0 to 63 do
        push_mixed q i
      done;
      while not (Sim.Eventq.is_empty q) do
        ignore (Sim.Eventq.pop_fn q : unit -> unit)
      done);
  (* ordering check, outside the measured window: pops come out by
     (time, seq) *)
  for i = 0 to 63 do
    push_mixed q i
  done;
  let last = ref neg_infinity in
  while not (Sim.Eventq.is_empty q) do
    let time = Sim.Eventq.min_time q in
    Alcotest.(check bool) "non-decreasing" true (time >= !last);
    last := time;
    ignore (Sim.Eventq.pop_fn q : unit -> unit)
  done

let test_eventq_order_key () =
  (* min_time/min_seq expose the full merge key used by the engine's
     main/timer heap split: ties on time break by sequence number *)
  let q = Sim.Eventq.create () in
  Sim.Eventq.push q ~time:1.0 ~seq:7 Sim.Eventq.nop;
  Sim.Eventq.push q ~time:1.0 ~seq:3 Sim.Eventq.nop;
  Sim.Eventq.push q ~time:0.5 ~seq:9 Sim.Eventq.nop;
  Alcotest.(check (float 0.0)) "min time" 0.5 (Sim.Eventq.min_time q);
  Alcotest.(check int) "min seq" 9 (Sim.Eventq.min_seq q);
  ignore (Sim.Eventq.pop_fn q : unit -> unit);
  Alcotest.(check int) "tie broken by seq" 3 (Sim.Eventq.min_seq q)

let test_xdr_round_trip () =
  let enc = Xdr.Enc.create () in
  (* pre-grow the encoder buffer and build the decoder once; the
     measured loop then reuses both. [to_bytes] would release the
     encoder back to the per-domain pool, so the decoder is seeded
     with an explicit copy instead. *)
  Xdr.Enc.reset enc;
  for i = 0 to 63 do
    Xdr.Enc.uint32 enc i
  done;
  let dec =
    Xdr.Dec.of_bytes
      (Bytes.sub (Xdr.Enc.unsafe_bytes enc) 0 (Xdr.Enc.length enc))
  in
  check_zero_alloc "xdr round trip on reused buffers" (fun () ->
      Xdr.Enc.reset enc;
      for i = 0 to 63 do
        Xdr.Enc.uint32 enc i
      done;
      Xdr.Dec.reuse dec (Xdr.Enc.unsafe_bytes enc) ~len:(Xdr.Enc.length enc);
      for i = 0 to 63 do
        let v = Xdr.Dec.uint32 dec in
        assert (v = i)
      done;
      Xdr.Dec.check_done dec)

let check_budget name ~words f =
  if native then begin
    f ();
    let used = measure f in
    if used > words then
      Alcotest.failf "%s allocates %.0f minor words; the budget is %.0f" name
        used words
  end

(* Runs [f] as the body of one process and drains the engine. *)
let in_process f =
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e ~name:"test" (fun () -> f e);
  Sim.Engine.run e

let test_sleep_budget () =
  (* the continuation plus its wake-up event; no register or resume
     closures, no effect payload *)
  in_process (fun e ->
      check_budget "Engine.sleep" ~words:10.0 (fun () -> Sim.Engine.sleep e 1.0))

let test_spawn_budget () =
  (* from outside any process: spawning, starting the fiber under the
     shared handler and running it to completion *)
  let e = Sim.Engine.create () in
  let body () = () in
  check_budget "spawn to completion" ~words:24.0 (fun () ->
      Sim.Engine.spawn e body;
      Sim.Engine.run e)

let null_handler ~caller:_ ~ctx:_ ~proc:_ _args =
  { Netsim.Rpc.data = Bytes.empty; bulk = 0 }

(* a client and a server on one network, with a no-op program *)
let null_world e =
  let net = Netsim.Net.create e () in
  let rpc = Netsim.Rpc.create net () in
  let client = Netsim.Net.Host.create net "client" in
  let server = Netsim.Net.Host.create net "server" in
  ignore (Netsim.Rpc.serve rpc server ~prog:"null" ~threads:2 null_handler);
  fun () ->
    ignore
      (Netsim.Rpc.call rpc ~src:client ~dst:server ~prog:"null" ~proc:"null"
         Bytes.empty)

let test_null_rpc_budget () =
  (* both hosts' CPU charges, two transmissions, the server's spawned
     request, the client's wait and the retransmission timer *)
  in_process (fun e ->
      let call = null_world e in
      check_budget "null Rpc.call round trip" ~words:180.0 call;
      Sim.Engine.stop e)

let test_null_rpc_events () =
  (* The event-stream contract the allocation work must keep: client
     CPU, transmission end, delivery, server process start, server CPU,
     transmission end, delivery (which wakes the client), and the dead
     retransmission timer. The engine runs one more event, the spawn
     of the calling process. *)
  let e = Sim.Engine.create () in
  let call = null_world e in
  Sim.Engine.spawn e ~name:"client" call;
  Sim.Engine.run e;
  Alcotest.(check int) "events of one null RPC" 8
    (Sim.Engine.events_executed e - 1)

let test_measure_sanity () =
  (* the harness itself must see allocation when there is some *)
  if native then begin
    let sink = ref [] in
    let words =
      measure (fun () -> sink := Sys.opaque_identity (ref 0) :: !sink)
    in
    Alcotest.(check bool) "allocation is visible" true (words > 0.0)
  end

let () =
  Alcotest.run "alloc"
    [
      ( "zero-allocation hot paths",
        [
          Alcotest.test_case "eventq push/pop cycle" `Quick test_eventq_cycle;
          Alcotest.test_case "eventq pop_fn drain" `Quick test_eventq_pop_fn;
          Alcotest.test_case "eventq order key" `Quick test_eventq_order_key;
          Alcotest.test_case "xdr round trip" `Quick test_xdr_round_trip;
          Alcotest.test_case "harness sanity" `Quick test_measure_sanity;
        ] );
      ( "suspension and RPC budgets",
        [
          Alcotest.test_case "sleep" `Quick test_sleep_budget;
          Alcotest.test_case "spawn to completion" `Quick test_spawn_budget;
          Alcotest.test_case "null RPC round trip" `Quick test_null_rpc_budget;
          Alcotest.test_case "null RPC events" `Quick test_null_rpc_events;
        ] );
    ]
