(* Tests for the discrete-event engine and its synchronization
   primitives. *)

let run_sim f =
  let e = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn e ~name:"test-main" (fun () ->
      result := Some (f e);
      (* daemons (syncers etc.) would keep the queue alive forever *)
      Sim.Engine.stop e);
  Sim.Engine.run e;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "simulation main process did not complete"

(* ---- event queue ---- *)

let test_eventq_order () =
  let q = Sim.Eventq.create () in
  let out = ref [] in
  let ev tag () = out := tag :: !out in
  Sim.Eventq.push q ~time:3.0 ~seq:0 (ev "c");
  Sim.Eventq.push q ~time:1.0 ~seq:1 (ev "a");
  Sim.Eventq.push q ~time:2.0 ~seq:2 (ev "b");
  while not (Sim.Eventq.is_empty q) do
    let _, _, fn = Sim.Eventq.pop q in
    fn ()
  done;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !out)

let test_eventq_ties () =
  let q = Sim.Eventq.create () in
  let out = ref [] in
  for i = 0 to 9 do
    Sim.Eventq.push q ~time:5.0 ~seq:i (fun () -> out := i :: !out)
  done;
  while not (Sim.Eventq.is_empty q) do
    let _, _, fn = Sim.Eventq.pop q in
    fn ()
  done;
  Alcotest.(check (list int))
    "seq breaks ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !out)

let test_eventq_empty () =
  let q = Sim.Eventq.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Sim.Eventq.pop q))

let prop_eventq_sorted =
  QCheck.Test.make ~name:"eventq pops in nondecreasing time order"
    ~count:200
    QCheck.(list (pair (float_range 0.0 1000.0) small_nat))
    (fun items ->
      let q = Sim.Eventq.create () in
      List.iteri
        (fun seq (time, _) -> Sim.Eventq.push q ~time ~seq (fun () -> ()))
        items;
      let times = ref [] in
      while not (Sim.Eventq.is_empty q) do
        let time, _, _ = Sim.Eventq.pop q in
        times := time :: !times
      done;
      let popped = List.rev !times in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      sorted popped && List.length popped = List.length items)

(* ---- engine ---- *)

let test_clock_advances () =
  let final =
    run_sim (fun e ->
        Alcotest.(check (float 1e-9)) "starts at zero" 0.0 (Sim.Engine.now e);
        Sim.Engine.sleep e 1.5;
        Alcotest.(check (float 1e-9)) "after sleep" 1.5 (Sim.Engine.now e);
        Sim.Engine.sleep e 0.5;
        Sim.Engine.now e)
  in
  Alcotest.(check (float 1e-9)) "final time" 2.0 final

let test_spawn_interleaving () =
  let order =
    run_sim (fun e ->
        let out = ref [] in
        let note tag = out := tag :: !out in
        Sim.Engine.spawn e (fun () ->
            note "a0";
            Sim.Engine.sleep e 2.0;
            note "a2");
        Sim.Engine.spawn e (fun () ->
            note "b0";
            Sim.Engine.sleep e 1.0;
            note "b1");
        Sim.Engine.sleep e 3.0;
        List.rev !out)
  in
  Alcotest.(check (list string)) "interleaving" [ "a0"; "b0"; "b1"; "a2" ] order

let test_at_past_rejected () =
  run_sim (fun e ->
      Sim.Engine.sleep e 1.0;
      Alcotest.check_raises "past scheduling"
        (Invalid_argument "Engine.at: time 0.5 is before now 1") (fun () ->
          Sim.Engine.at e 0.5 (fun () -> ())))

let test_run_until () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  Sim.Engine.at e 1.0 (fun () -> fired := 1 :: !fired);
  Sim.Engine.at e 2.0 (fun () -> fired := 2 :: !fired);
  Sim.Engine.at e 5.0 (fun () -> fired := 5 :: !fired);
  Sim.Engine.run_until e 3.0;
  Alcotest.(check (list int)) "only early events" [ 2; 1 ] !fired;
  Alcotest.(check (float 1e-9)) "clock at limit" 3.0 (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "rest fires" [ 5; 2; 1 ] !fired

let test_process_exception_propagates () =
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e ~name:"boom" (fun () -> failwith "expected");
  match Sim.Engine.run e with
  | () -> Alcotest.fail "exception should propagate"
  | exception _ -> ()

let test_process_failure_named () =
  (* the failure is raised after a suspension, from the event that
     resumed the process, and still names it *)
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e ~name:"late" (fun () ->
      Sim.Engine.sleep e 1.0;
      failwith "expected");
  match Sim.Engine.run e with
  | () -> Alcotest.fail "exception should propagate"
  | exception ex ->
      Alcotest.(check string)
        "named" {|process "late" failed with Failure("expected")|}
        (Printexc.to_string ex)

let test_park_unpark () =
  run_sim (fun e ->
      let s = Sim.Engine.slot () in
      let log = ref [] in
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.park e s;
          log := "woken" :: !log);
      Sim.Engine.sleep e 1.0;
      Alcotest.(check bool) "parked" true (Sim.Engine.parked s);
      Sim.Engine.unpark s;
      log := "unpark returned" :: !log;
      Alcotest.(check (list string))
        "resumed synchronously" [ "woken"; "unpark returned" ] (List.rev !log);
      Alcotest.(check bool) "empty again" false (Sim.Engine.parked s);
      Alcotest.check_raises "unpark of an empty slot"
        (Invalid_argument "Engine.unpark: no process parked") (fun () ->
          Sim.Engine.unpark s))

(* ---- ivar ---- *)

let test_ivar_basic () =
  run_sim (fun e ->
      let iv = Sim.Ivar.create e in
      Alcotest.(check bool) "empty" false (Sim.Ivar.is_full iv);
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.sleep e 1.0;
          Sim.Ivar.fill iv 42);
      let v = Sim.Ivar.read iv in
      Alcotest.(check int) "value" 42 v;
      Alcotest.(check (float 1e-9)) "waited" 1.0 (Sim.Engine.now e);
      (* read after fill is immediate *)
      Alcotest.(check int) "re-read" 42 (Sim.Ivar.read iv))

let test_ivar_double_fill () =
  run_sim (fun e ->
      let iv = Sim.Ivar.create e in
      Sim.Ivar.fill iv 1;
      Alcotest.check_raises "double fill"
        (Invalid_argument "Ivar.fill: already filled") (fun () ->
          Sim.Ivar.fill iv 2))

let test_ivar_timeout () =
  run_sim (fun e ->
      let iv = Sim.Ivar.create e in
      let r = Sim.Ivar.read_timeout iv 2.0 in
      Alcotest.(check (option int)) "timed out" None r;
      Alcotest.(check (float 1e-9)) "waited full timeout" 2.0 (Sim.Engine.now e);
      (* late fill is still possible and observable *)
      Sim.Ivar.fill iv 7;
      Alcotest.(check (option int)) "late fill" (Some 7)
        (Sim.Ivar.read_timeout iv 1.0))

let test_ivar_timeout_beaten () =
  run_sim (fun e ->
      let iv = Sim.Ivar.create e in
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.sleep e 0.5;
          Sim.Ivar.fill iv "yes");
      let r = Sim.Ivar.read_timeout iv 2.0 in
      Alcotest.(check (option string)) "filled first" (Some "yes") r;
      Alcotest.(check (float 1e-9)) "at fill time" 0.5 (Sim.Engine.now e))

let test_ivar_multiple_readers () =
  run_sim (fun e ->
      let iv = Sim.Ivar.create e in
      let seen = ref 0 in
      for _ = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            let v = Sim.Ivar.read iv in
            seen := !seen + v)
      done;
      Sim.Engine.sleep e 1.0;
      Sim.Ivar.fill iv 10;
      Sim.Engine.sleep e 0.1;
      Alcotest.(check int) "all readers woken" 30 !seen)

(* ---- mailbox ---- *)

let test_mailbox_fifo () =
  run_sim (fun e ->
      let mb = Sim.Mailbox.create e in
      Sim.Mailbox.send mb 1;
      Sim.Mailbox.send mb 2;
      Sim.Mailbox.send mb 3;
      Alcotest.(check int) "first" 1 (Sim.Mailbox.recv mb);
      Alcotest.(check int) "second" 2 (Sim.Mailbox.recv mb);
      Alcotest.(check int) "third" 3 (Sim.Mailbox.recv mb))

let test_mailbox_blocking () =
  run_sim (fun e ->
      let mb = Sim.Mailbox.create e in
      Sim.Engine.spawn e (fun () ->
          Sim.Engine.sleep e 1.0;
          Sim.Mailbox.send mb "hello");
      let v = Sim.Mailbox.recv mb in
      Alcotest.(check string) "received" "hello" v;
      Alcotest.(check (float 1e-9)) "blocked until send" 1.0 (Sim.Engine.now e))

let test_mailbox_timeout () =
  run_sim (fun e ->
      let mb : int Sim.Mailbox.t = Sim.Mailbox.create e in
      Alcotest.(check (option int)) "timeout" None
        (Sim.Mailbox.recv_timeout mb 1.0);
      (* a message sent after a timed-out receiver goes to the queue *)
      Sim.Mailbox.send mb 5;
      Alcotest.(check (option int)) "queued" (Some 5)
        (Sim.Mailbox.recv_timeout mb 1.0))

let test_mailbox_receivers_fifo () =
  run_sim (fun e ->
      let mb = Sim.Mailbox.create e in
      let order = ref [] in
      Sim.Engine.spawn e (fun () ->
          let v = Sim.Mailbox.recv mb in
          order := ("first", v) :: !order);
      Sim.Engine.spawn e (fun () ->
          let v = Sim.Mailbox.recv mb in
          order := ("second", v) :: !order);
      Sim.Engine.sleep e 0.1;
      Sim.Mailbox.send mb 1;
      Sim.Mailbox.send mb 2;
      Sim.Engine.sleep e 0.1;
      Alcotest.(check (list (pair string int)))
        "receiver order" [ ("first", 1); ("second", 2) ] (List.rev !order))

(* ---- semaphore ---- *)

let test_semaphore_mutual_exclusion () =
  run_sim (fun e ->
      let sem = Sim.Semaphore.create e 1 in
      let active = ref 0 in
      let max_active = ref 0 in
      for _ = 1 to 5 do
        Sim.Engine.spawn e (fun () ->
            Sim.Semaphore.with_unit sem (fun () ->
                incr active;
                max_active := max !max_active !active;
                Sim.Engine.sleep e 1.0;
                decr active))
      done;
      Sim.Engine.sleep e 10.0;
      Alcotest.(check int) "never concurrent" 1 !max_active)

let test_semaphore_capacity () =
  run_sim (fun e ->
      let sem = Sim.Semaphore.create e 3 in
      let max_active = ref 0 in
      let active = ref 0 in
      for _ = 1 to 10 do
        Sim.Engine.spawn e (fun () ->
            Sim.Semaphore.with_unit sem (fun () ->
                incr active;
                max_active := max !max_active !active;
                Sim.Engine.sleep e 1.0;
                decr active))
      done;
      Sim.Engine.sleep e 20.0;
      Alcotest.(check int) "bounded by capacity" 3 !max_active)

let test_semaphore_try_acquire () =
  run_sim (fun e ->
      let sem = Sim.Semaphore.create e 1 in
      Alcotest.(check bool) "first" true (Sim.Semaphore.try_acquire sem);
      Alcotest.(check bool) "exhausted" false (Sim.Semaphore.try_acquire sem);
      Sim.Semaphore.release sem;
      Alcotest.(check bool) "after release" true (Sim.Semaphore.try_acquire sem))

let test_semaphore_release_on_exception () =
  run_sim (fun e ->
      let sem = Sim.Semaphore.create e 1 in
      (try Sim.Semaphore.with_unit sem (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check int) "released" 1 (Sim.Semaphore.available sem))

(* ---- resource ---- *)

let test_resource_busy_time () =
  run_sim (fun e ->
      let r = Sim.Resource.create e "cpu" in
      Sim.Resource.use r 2.0;
      Sim.Engine.sleep e 3.0;
      Sim.Resource.use r 1.0;
      Alcotest.(check (float 1e-9)) "busy time" 3.0 (Sim.Resource.busy_time r);
      Alcotest.(check (float 1e-9)) "clock" 6.0 (Sim.Engine.now e))

let test_resource_queueing () =
  run_sim (fun e ->
      let r = Sim.Resource.create e "disk" in
      let completion = ref [] in
      for i = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            Sim.Resource.use r 1.0;
            completion := (i, Sim.Engine.now e) :: !completion)
      done;
      Sim.Engine.sleep e 10.0;
      Alcotest.(check (list (pair int (float 1e-9))))
        "FIFO service"
        [ (1, 1.0); (2, 2.0); (3, 3.0) ]
        (List.rev !completion);
      (* resource was busy the whole 3 seconds *)
      Alcotest.(check (float 1e-9)) "busy" 3.0 (Sim.Resource.busy_time r))

let test_resource_capacity_2 () =
  run_sim (fun e ->
      let r = Sim.Resource.create e ~capacity:2 "pair" in
      let completion = ref [] in
      for i = 1 to 4 do
        Sim.Engine.spawn e (fun () ->
            Sim.Resource.use r 1.0;
            completion := (i, Sim.Engine.now e) :: !completion)
      done;
      Sim.Engine.sleep e 10.0;
      Alcotest.(check (list (pair int (float 1e-9))))
        "two at a time"
        [ (1, 1.0); (2, 1.0); (3, 2.0); (4, 2.0) ]
        (List.rev !completion))

(* ---- waitgroup ---- *)

let test_waitgroup_joins () =
  run_sim (fun e ->
      let wg = Sim.Waitgroup.create e in
      Sim.Waitgroup.add wg ~n:3 ();
      for i = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            Sim.Engine.sleep e (float_of_int i);
            Sim.Waitgroup.done_ wg)
      done;
      Sim.Waitgroup.wait wg;
      Alcotest.(check (float 1e-9)) "waited for the slowest" 3.0
        (Sim.Engine.now e);
      Alcotest.(check int) "drained" 0 (Sim.Waitgroup.outstanding wg))

let test_waitgroup_immediate () =
  run_sim (fun e ->
      let wg = Sim.Waitgroup.create e in
      Sim.Waitgroup.wait wg;
      Alcotest.(check (float 1e-9)) "no wait when empty" 0.0 (Sim.Engine.now e))

let test_waitgroup_below_zero () =
  run_sim (fun e ->
      let wg = Sim.Waitgroup.create e in
      Alcotest.check_raises "below zero"
        (Invalid_argument "Waitgroup.done_: below zero") (fun () ->
          Sim.Waitgroup.done_ wg))

let test_waitgroup_multiple_waiters () =
  run_sim (fun e ->
      let wg = Sim.Waitgroup.create e in
      Sim.Waitgroup.add wg ();
      let released = ref 0 in
      for _ = 1 to 3 do
        Sim.Engine.spawn e (fun () ->
            Sim.Waitgroup.wait wg;
            incr released)
      done;
      Sim.Engine.sleep e 1.0;
      Alcotest.(check int) "nobody released yet" 0 !released;
      Sim.Waitgroup.done_ wg;
      Sim.Engine.sleep e 0.1;
      Alcotest.(check int) "all released" 3 !released)

(* ---- rand ---- *)

let test_rand_deterministic () =
  let a = Sim.Rand.create 7L in
  let b = Sim.Rand.create 7L in
  let seq r = List.init 20 (fun _ -> Sim.Rand.int r 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b)

let test_rand_seeds_differ () =
  let a = Sim.Rand.create 7L in
  let b = Sim.Rand.create 8L in
  let seq r = List.init 20 (fun _ -> Sim.Rand.int r 1000000) in
  Alcotest.(check bool) "different streams" false (seq a = seq b)

let prop_rand_int_bounds =
  QCheck.Test.make ~name:"Rand.int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_nat)
    (fun (bound, seed) ->
      let bound = bound + 1 in
      let r = Sim.Rand.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Sim.Rand.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rand_float_bounds =
  QCheck.Test.make ~name:"Rand.float stays in [0,1)" ~count:200 QCheck.small_nat
    (fun seed ->
      let r = Sim.Rand.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Sim.Rand.float r in
        if v < 0.0 || v >= 1.0 then ok := false
      done;
      !ok)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "eventq",
        [
          Alcotest.test_case "time order" `Quick test_eventq_order;
          Alcotest.test_case "sequence ties" `Quick test_eventq_ties;
          Alcotest.test_case "pop empty" `Quick test_eventq_empty;
        ]
        @ qc [ prop_eventq_sorted ] );
      ( "engine",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "spawn interleaving" `Quick test_spawn_interleaving;
          Alcotest.test_case "past scheduling rejected" `Quick
            test_at_past_rejected;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "process exception" `Quick
            test_process_exception_propagates;
          Alcotest.test_case "failure names the process" `Quick
            test_process_failure_named;
          Alcotest.test_case "park and unpark" `Quick test_park_unpark;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "basic" `Quick test_ivar_basic;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "timeout" `Quick test_ivar_timeout;
          Alcotest.test_case "fill beats timeout" `Quick test_ivar_timeout_beaten;
          Alcotest.test_case "multiple readers" `Quick
            test_ivar_multiple_readers;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking" `Quick test_mailbox_blocking;
          Alcotest.test_case "timeout" `Quick test_mailbox_timeout;
          Alcotest.test_case "receivers fifo" `Quick test_mailbox_receivers_fifo;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutual exclusion" `Quick
            test_semaphore_mutual_exclusion;
          Alcotest.test_case "capacity" `Quick test_semaphore_capacity;
          Alcotest.test_case "try_acquire" `Quick test_semaphore_try_acquire;
          Alcotest.test_case "release on exception" `Quick
            test_semaphore_release_on_exception;
        ] );
      ( "resource",
        [
          Alcotest.test_case "busy time" `Quick test_resource_busy_time;
          Alcotest.test_case "queueing" `Quick test_resource_queueing;
          Alcotest.test_case "capacity 2" `Quick test_resource_capacity_2;
        ] );
      ( "waitgroup",
        [
          Alcotest.test_case "joins" `Quick test_waitgroup_joins;
          Alcotest.test_case "immediate" `Quick test_waitgroup_immediate;
          Alcotest.test_case "below zero" `Quick test_waitgroup_below_zero;
          Alcotest.test_case "multiple waiters" `Quick
            test_waitgroup_multiple_waiters;
        ] );
      ( "rand",
        [
          Alcotest.test_case "deterministic" `Quick test_rand_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rand_seeds_differ;
        ]
        @ qc [ prop_rand_int_bounds; prop_rand_float_bounds ] );
    ]
