(* Failure detection with suspicion latency, transfer retry/backoff and
   resumable recovery: spec grammars, detection-schedule semantics, the
   engine-facing cursor, golden detection scenes (deferred settle, blip
   immunity, resume-vs-restart), zero-latency equivalence with the
   omniscient engine, and chaos invariants under detector + retry.
   Every QCheck input is a PRNG seed, so a failure prints the exact
   integer needed to replay it. *)

module Engine = S3_sim.Engine
module Metrics = S3_sim.Metrics
module Report = S3_sim.Report
module Retry = S3_sim.Retry
module Watchdog = S3_sim.Watchdog
module Fault = S3_fault.Fault
module Detector = S3_fault.Detector
module Registry = S3_core.Registry
module Task = S3_workload.Task
module T = S3_net.Topology
module Prng = S3_util.Prng
module Sweep = S3_par.Sweep

let tc = Alcotest.test_case
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let topo = Helpers.topo  (* two-tier, 3 racks x 3 servers, cst 1000, cta 3000 *)

let plan spec = match Fault.of_string spec with Ok p -> p | Error e -> Alcotest.fail e

(* The detection counters are the one place a zero-latency detector and
   the omniscient engine legitimately differ, so equivalence claims
   compare fingerprints with them scrubbed out. *)
let scrub (r : Metrics.run) =
  Report.fingerprint
    { r with Metrics.suspicions = 0; false_suspicions = 0; detections = 0 }

let zero_latency = Detector.v ~suspect:0. ~confirm:0. ()
let restart_retry = { Retry.default with Retry.resume = false }

(* ---- spec grammars ---- *)

let test_detector_spec_roundtrip () =
  Alcotest.(check string) "default round trip" "suspect=1,confirm=1"
    (Detector.to_string (Detector.v ()));
  (match Detector.of_string "default" with
   | Ok c ->
     Alcotest.(check string) "'default' parses" (Detector.to_string (Detector.v ()))
       (Detector.to_string c)
   | Error e -> Alcotest.fail e);
  (match Detector.of_string "latency=2.5" with
   | Ok c ->
     checkf "latency shorthand is all silence" 2.5 c.Detector.suspect;
     checkf "with no confirmation window" 0. c.Detector.confirm;
     checkf "latency" 2.5 (c.Detector.suspect +. c.Detector.confirm)
   | Error e -> Alcotest.fail e);
  (match Detector.of_string "suspect=0.5,confirm=2,fp=3,fp_seed=9,fp_horizon=40" with
   | Error e -> Alcotest.fail e
   | Ok c ->
     checkf "suspect" 0.5 c.Detector.suspect;
     checkf "confirm" 2. c.Detector.confirm;
     Alcotest.(check int) "fp (underscore aliases)" 3 c.Detector.fp;
     Alcotest.(check int) "fp seed" 9 c.Detector.fp_seed;
     checkf "fp horizon" 40. c.Detector.fp_horizon;
     (match Detector.of_string (Detector.to_string c) with
      | Ok again ->
        Alcotest.(check string) "stable" (Detector.to_string c) (Detector.to_string again)
      | Error e -> Alcotest.fail e));
  List.iter
    (fun spec ->
      match Detector.of_string spec with
      | Ok _ -> Alcotest.failf "%S should not parse" spec
      | Error e ->
        Alcotest.(check bool) "one-line message" false (String.contains e '\n'))
    [ "suspect=-1"; "confirm=oops"; "latency"; "bogus=1"; "fp=2";  (* fp needs a horizon *)
      "fp=1,fp-horizon=0,confirm=1"; "suspect=nan"
    ]

let test_retry_spec_roundtrip () =
  Alcotest.(check string) "default round trip" "retries=2,timeout=1,backoff=2,resume=true"
    (Retry.to_string Retry.default);
  (match Retry.of_string "retries=4,timeout=0.25,backoff=1.5,resume=false" with
   | Error e -> Alcotest.fail e
   | Ok c ->
     Alcotest.(check int) "retries" 4 c.Retry.retries;
     checkf "timeout" 0.25 c.Retry.timeout;
     checkf "backoff" 1.5 c.Retry.backoff;
     Alcotest.(check bool) "resume" false c.Retry.resume;
     (match Retry.of_string (Retry.to_string c) with
      | Ok again ->
        Alcotest.(check string) "stable" (Retry.to_string c) (Retry.to_string again)
      | Error e -> Alcotest.fail e));
  (match Retry.of_string "default" with
   | Ok c ->
     Alcotest.(check string) "'default' parses" (Retry.to_string Retry.default)
       (Retry.to_string c)
   | Error e -> Alcotest.fail e);
  List.iter
    (fun spec ->
      match Retry.of_string spec with
      | Ok _ -> Alcotest.failf "%S should not parse" spec
      | Error e ->
        Alcotest.(check bool) "one-line message" false (String.contains e '\n'))
    [ "retries=-1"; "timeout=0"; "backoff=0.5"; "resume=maybe"; "retries=1.5"; "nope=1" ]

(* ---- the detection schedule ---- *)

(* The whole detection schedule, read off the engine-facing cursor:
   every batch stamped with the instant it fires. *)
let schedule topo c faults =
  let st = Detector.start topo c faults in
  let rec go acc =
    let t = Detector.next_change st in
    if Float.is_finite t then
      go (List.rev_append (List.map (fun e -> (t, e)) (Detector.advance st t)) acc)
    else List.rev acc
  in
  go []

let event_to_string (t, ev) =
  let kind, s =
    match ev with
    | Detector.Suspected s -> ("S", s)
    | Detector.Cleared s -> ("c", s)
    | Detector.Confirmed s -> ("C", s)
    | Detector.Seen_alive s -> ("a", s)
  in
  Printf.sprintf "%s%d@%g" kind s t

let sched c spec =
  String.concat " " (List.map event_to_string (schedule topo c (plan spec)))

let test_schedule_semantics () =
  let c = Detector.v ~suspect:1. ~confirm:1. () in
  Alcotest.(check string) "blip shorter than the suspicion window is invisible" ""
    (sched c "crash@1:1,recover@1.5:1");
  Alcotest.(check string) "recovery at exactly t_suspect is still a blip" ""
    (sched c "crash@1:1,recover@2:1");
  Alcotest.(check string) "recovery inside the confirmation window clears" "S1@2 c1@2.5"
    (sched c "crash@1:1,recover@2.5:1");
  Alcotest.(check string) "recovery at exactly the confirmation instant still clears"
    "S1@2 c1@3" (sched c "crash@1:1,recover@3:1");
  Alcotest.(check string) "an unrecovered crash confirms at crash + latency" "S1@2 C1@3"
    (sched c "crash@1:1");
  Alcotest.(check string) "recovery after confirmation is merely seen-alive"
    "S1@2 C1@3 a1@5" (sched c "crash@1:1,recover@5:1");
  (* A rack outage confirms every member in the physical batch order,
     not sorted by anything else — the order the omniscient engine
     would have killed them in. *)
  let instant = Detector.v ~suspect:0.5 ~confirm:0. () in
  Alcotest.(check string) "rack outage expands in batch fire order"
    "S0@1.5 C0@1.5 S1@1.5 C1@1.5 S2@1.5 C2@1.5" (sched instant "rack@1:0");
  (* Equal-time crashes keep their plan order. *)
  Alcotest.(check string) "equal-time crashes keep plan order"
    "S2@3 C2@3 S1@3 C1@3" (sched instant "crash@2.5:2,crash@2.5:1")

let test_schedule_false_positives () =
  let c = Detector.v ~suspect:1. ~confirm:2. ~fp:4 ~fp_seed:99 ~fp_horizon:50. () in
  let evs = schedule topo c (plan "crash@10:1") in
  let count p = List.length (List.filter p evs) in
  let confirms = count (fun (_, e) -> match e with Detector.Confirmed _ -> true | _ -> false) in
  let suspects = count (fun (_, e) -> match e with Detector.Suspected _ -> true | _ -> false) in
  let clears = count (fun (_, e) -> match e with Detector.Cleared _ -> true | _ -> false) in
  Alcotest.(check int) "only the real crash confirms" 1 confirms;
  Alcotest.(check bool) "some false positives survived the draw" true (suspects > 1);
  Alcotest.(check int) "every false positive clears" (suspects - 1) clears;
  (* False positives always clear strictly inside their confirmation
     window: no Cleared later than its Suspected + confirm. *)
  let by_time = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) evs in
  Alcotest.(check string) "schedule is already time-sorted"
    (String.concat " " (List.map event_to_string evs))
    (String.concat " " (List.map event_to_string by_time));
  (* Dropped-not-rerolled: adding the crash only removes colliding
     draws, it never shifts the surviving ones. *)
  let fp_only = schedule topo c Fault.empty in
  List.iter
    (fun ev ->
      let is_real (_, e) =
        match e with
        | Detector.Suspected 1 | Detector.Confirmed 1 | Detector.Seen_alive 1 -> true
        | _ -> false
      in
      if not (is_real ev) then
        Alcotest.(check bool)
          (Printf.sprintf "surviving draw %s also in the no-crash schedule"
             (event_to_string ev))
          true
          (List.exists (fun e -> String.equal (event_to_string e) (event_to_string ev)) fp_only))
    evs;
  Alcotest.(check string) "schedule replays byte-identically"
    (String.concat " " (List.map event_to_string evs))
    (String.concat " "
       (List.map event_to_string (schedule topo c (plan "crash@10:1"))))

let test_cursor () =
  let c = Detector.v ~suspect:1. ~confirm:1. () in
  let st = Detector.start topo c (plan "crash@1:1,recover@2.5:1,crash@4:2") in
  Alcotest.(check bool) "nothing suspected at 0" false (Detector.suspected st 1);
  checkf "first event" 2. (Detector.next_change st);
  (match Detector.advance st 2. with
   | [ Detector.Suspected 1 ] -> ()
   | _ -> Alcotest.fail "expected [Suspected 1]");
  Alcotest.(check bool) "suspected" true (Detector.suspected st 1);
  Alcotest.(check bool) "but not believed dead" false (Detector.believed_dead st 1);
  (match Detector.advance st 2.5 with
   | [ Detector.Cleared 1 ] -> ()
   | _ -> Alcotest.fail "expected [Cleared 1]");
  Alcotest.(check bool) "cleared" false (Detector.suspected st 1);
  (match Detector.advance st 6. with
   | [ Detector.Suspected 2; Detector.Confirmed 2 ] -> ()
   | _ -> Alcotest.fail "expected [Suspected 2; Confirmed 2]");
  Alcotest.(check bool) "believed dead" true (Detector.believed_dead st 2);
  Alcotest.(check bool) "known crashed" true (Detector.known_crashed st 2);
  Alcotest.(check bool) "server 1 never confirmed" false (Detector.known_crashed st 1);
  Alcotest.(check bool) "exhausted" true (Detector.exhausted st);
  Alcotest.(check int) "re-advancing fires nothing" 0 (List.length (Detector.advance st 6.))

(* ---- golden detection scenes ----

   Helpers.topo routes server 1 -> server 0 inside one rack over two
   1000 Mb/s NICs, so an unimpeded 1000 Mb chunk takes exactly 1 s, and
   a crash of the chosen source at t=0.5 strands exactly 500 Mb. *)

let one_task ?(deadline = 10.) () =
  Task.v ~id:0 ~arrival:0. ~deadline ~volume:1000. ~k:1 ~sources:[| 1; 2 |] ~destination:0 ()

let crash_at time s = Fault.plan [ { Fault.time; kind = Fault.Server_crash s } ]

let finish run = (List.hd run.Metrics.outcomes).Metrics.finish_time

let test_golden_deferred_settle () =
  let faults = crash_at 0.5 1 in
  let lpst () = Registry.make "lpst" in
  (* Omniscient baseline (pinned in test_fault): kill at injection,
     restart on the survivor, finish at 0.5 + 1.0. *)
  let omni = Engine.run ~faults topo (lpst ()) [ one_task () ] in
  checkf "omniscient restart finishes at 1.5" 1.5 (finish omni);
  (* Detection latency 0.25: the dying flow keeps "transferring" at
     rate zero into the dead NIC until the detector fires at 0.75, so
     the restart lands strictly later — the suspicion-latency window. *)
  let det = Detector.v ~suspect:0.25 ~confirm:0. () in
  let run = Engine.run ~faults ~detector:det topo (lpst ()) [ one_task () ] in
  checkf "settle deferred to detection: finish at 1.75" 1.75 (finish run);
  checkf "no progress made inside the detection window: waste unchanged" 500.
    run.Metrics.wasted;
  checkf "transferred counts both fetches" 1500. run.Metrics.transferred;
  Alcotest.(check int) "one suspicion" 1 run.Metrics.suspicions;
  Alcotest.(check int) "one detection" 1 run.Metrics.detections;
  Alcotest.(check int) "no false suspicion" 0 run.Metrics.false_suspicions;
  Alcotest.(check int) "one flow killed (at detection)" 1 run.Metrics.flows_killed;
  (* Resume on top: the replacement inherits the 500 Mb already fetched
     and the waste disappears into bytes_resumed. *)
  let res = Engine.run ~faults ~detector:det ~retry:Retry.default topo (lpst ())
      [ one_task () ] in
  checkf "resume finishes at 1.25" 1.25 (finish res);
  checkf "no waste" 0. res.Metrics.wasted;
  checkf "partial progress preserved" 500. res.Metrics.bytes_resumed;
  checkf "transferred is exactly the chunk" 1000. res.Metrics.transferred;
  (* Resume without a detector: the omniscient engine re-homes at
     injection time and still keeps the progress. *)
  let omni_res = Engine.run ~faults ~retry:Retry.default topo (lpst ()) [ one_task () ] in
  checkf "omniscient resume finishes at 1.0" 1.0 (finish omni_res);
  checkf "omniscient resume preserves the same bytes" 500. omni_res.Metrics.bytes_resumed;
  (* Restart-mode retry config must reproduce the no-retry goldens. *)
  let omni_restart = Engine.run ~faults ~retry:restart_retry topo (lpst ()) [ one_task () ] in
  checkf "resume=false restarts at full volume" 1.5 (finish omni_restart);
  checkf "resume=false wastes the partial fetch" 500. omni_restart.Metrics.wasted

let test_golden_blip_unnoticed () =
  (* A 0.1 s crash-recover blip under a 0.5 s suspicion window: the
     transfer session survives, losing only the stalled wall-clock. *)
  let faults = plan "crash@0.5:1,recover@0.6:1" in
  let det = Detector.v ~suspect:0.5 ~confirm:0.5 () in
  let run = Engine.run ~faults ~detector:det topo (Registry.make "lpst") [ one_task () ] in
  Alcotest.(check int) "completed" 1 (Metrics.completed run);
  checkf "finish is delayed only by the stall" 1.1 (finish run);
  Alcotest.(check int) "no flow killed" 0 run.Metrics.flows_killed;
  Alcotest.(check int) "no suspicion raised" 0 run.Metrics.suspicions;
  checkf "nothing wasted" 0. run.Metrics.wasted;
  (* The omniscient engine kills the flow the instant the server dies —
     the blip immunity is purely a detector behavior. *)
  let omni = Engine.run ~faults topo (Registry.make "lpst") [ one_task () ] in
  Alcotest.(check int) "omniscient kills on the blip" 1 omni.Metrics.flows_killed;
  checkf "and pays the restart" 1.5 (finish omni)

(* The one exception to zero-latency equivalence, on the CLI's [run]
   scene ([--tasks 60 --rate 1 -a lpst]): server 3 crashes and recovers
   at t=10. The recovery lands at exactly [crash + suspect], which the
   detector's blip rule ignores, so the detector run kills nothing
   while the omniscient run kills and re-homes the server's flows. *)
let test_golden_same_instant_bounce () =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let cfg =
    { S3_workload.Generator.num_tasks = 60;
      arrival_rate = 1.;
      chunk_size_mb = 64.;
      code_mix = [ ((9, 6), 1.) ];
      deadline_factor = 10.;
      deadline_jitter = 0.5;
      placement = S3_storage.Placement.Rack_aware
    }
  in
  let tasks = S3_workload.Generator.generate (Prng.create 11) topo cfg in
  let config = { Engine.foreground = S3_sim.Foreground.none; seed = 12 } in
  let faults = plan "crash@10:3,recover@10:3" in
  let run ?detector () =
    Engine.run ~config ~faults ?detector topo (Registry.make "lpst") tasks
  in
  let omni = run () and zero = run ~detector:zero_latency () in
  Alcotest.(check (pair int int)) "omniscient: 4 flows killed, 4 tasks re-homed" (4, 4)
    (omni.Metrics.flows_killed, omni.Metrics.tasks_rehomed);
  Alcotest.(check (pair int int)) "zero latency: nothing killed or re-homed" (0, 0)
    (zero.Metrics.flows_killed, zero.Metrics.tasks_rehomed);
  Alcotest.(check int) "never suspected" 0 zero.Metrics.suspicions;
  Alcotest.(check int) "both complete every task" 120
    (Metrics.completed omni + Metrics.completed zero);
  Alcotest.(check bool) "the runs differ" true (scrub omni <> scrub zero)

let test_golden_suspected_avoided () =
  (* Server 1 suspected (long confirmation window, never confirmed):
     its in-flight flow is not killed, but a later arrival avoids it. *)
  let faults = crash_at 0.5 1 in
  let det = Detector.v ~suspect:0.25 ~confirm:100. () in
  let t2 =
    Task.v ~id:1 ~arrival:1. ~deadline:10. ~volume:1000. ~k:1 ~sources:[| 1; 2 |]
      ~destination:3 ()
  in
  let run =
    Engine.run ~faults ~detector:det topo (Registry.make "lpst") [ one_task (); t2 ]
  in
  Alcotest.(check int) "no flow ever killed" 0 run.Metrics.flows_killed;
  Alcotest.(check int) "suspicion raised" 1 run.Metrics.suspicions;
  Alcotest.(check int) "never confirmed" 0 run.Metrics.detections;
  let o1 = List.find (fun (o : Metrics.outcome) -> o.Metrics.task.Task.id = 0)
      run.Metrics.outcomes in
  let o2 = List.find (fun (o : Metrics.outcome) -> o.Metrics.task.Task.id = 1)
      run.Metrics.outcomes in
  Alcotest.(check bool) "stalled task misses its deadline" false o1.Metrics.completed;
  checkf "with the un-killed flow's remainder stranded" 500. o1.Metrics.remaining;
  Alcotest.(check bool) "later arrival completes" true o2.Metrics.completed;
  Alcotest.(check (array int)) "from the unsuspected source" [| 2 |] o2.Metrics.sources

(* ---- golden detection storm: resume vs restart ---- *)

let fig5_workload = Test_fault.fig5_workload

let detection_storm () =
  let big, tasks = fig5_workload 3 in
  let faults =
    Fault.plan
      (List.map (fun s -> { Fault.time = 30.; kind = Fault.Server_crash s }) [ 10; 11; 12 ])
  in
  (big, tasks, faults)

let test_golden_storm_resume_beats_restart () =
  let big, tasks, faults = detection_storm () in
  let det = Detector.v ~suspect:2. ~confirm:0. () in
  let lpst () = Registry.make "lpst" in
  let omni = Engine.run ~faults ~retry:Retry.default big (lpst ()) tasks in
  let restart = Engine.run ~faults ~detector:det ~retry:restart_retry big (lpst ()) tasks in
  let resume = Engine.run ~faults ~detector:det ~retry:Retry.default big (lpst ()) tasks in
  Alcotest.(check int) "three deaths confirmed" 3 resume.Metrics.detections;
  Alcotest.(check bool) "the storm kills flows at detection time" true
    (resume.Metrics.flows_killed > 0);
  Alcotest.(check bool) "at least one re-homed task resumed partial progress" true
    (resume.Metrics.bytes_resumed > 0.);
  (* Detection latency moves the settles strictly later, which changes
     the run — the scrubbed fingerprints must differ from omniscient. *)
  Alcotest.(check bool) "latency-2 run differs from the omniscient run" true
    (not (String.equal (scrub omni) (scrub resume)));
  (* Zero latency, by contrast, replays the omniscient run on the
     storm: only the detection counters tell the two apart. *)
  let zero = Engine.run ~faults ~detector:zero_latency ~retry:Retry.default big (lpst ()) tasks in
  Alcotest.(check string) "zero-latency run replays the omniscient run" (scrub omni)
    (scrub zero);
  (* The acceptance criterion: on the same fault plan and the same
     detection latency, resume-enabled recovery hits at least as many
     deadlines as restart-from-zero, and throws away less work. *)
  Alcotest.(check bool)
    (Printf.sprintf "resume hits >= restart hits (%d vs %d)" (Metrics.completed resume)
       (Metrics.completed restart))
    true
    (Metrics.completed resume >= Metrics.completed restart);
  Alcotest.(check bool)
    (Printf.sprintf "resume wastes less (%.1f vs %.1f Mb)" resume.Metrics.wasted
       restart.Metrics.wasted)
    true
    (resume.Metrics.wasted < restart.Metrics.wasted);
  (* Detection runs replay byte-identically. *)
  let again = Engine.run ~faults ~detector:det ~retry:Retry.default big (lpst ()) tasks in
  Alcotest.(check string) "detection replay is byte-identical" (Report.fingerprint resume)
    (Report.fingerprint again)

(* ---- retry golden: transient degradation stalls ---- *)

let test_golden_retry_rehome () =
  (* The chosen source's NIC drops to factor 0 for 20 s: the flow
     stalls, the retry timers fire (1 s, then 2 s backoff), the budget
     exhausts and the task is re-homed onto the spare — all long before
     the degradation would have expired. *)
  let e1 = T.server_entity topo 1 in
  let faults = plan (Printf.sprintf "degrade@0.5:%d:0:20" e1) in
  let run =
    Engine.run ~faults ~retry:Retry.default topo (Registry.make "lpst") [ one_task () ]
  in
  Alcotest.(check int) "completed despite the stall" 1 (Metrics.completed run);
  Alcotest.(check int) "two same-source retries" 2 run.Metrics.retries_attempted;
  Alcotest.(check int) "then the budget exhausts" 1 run.Metrics.retries_exhausted;
  Alcotest.(check int) "one re-home" 1 run.Metrics.tasks_rehomed;
  checkf "resume carries the 500 Mb already fetched" 500. run.Metrics.bytes_resumed;
  (* Stall at 0.5; retries at 1.5 and 3.5; exhaustion re-home at 7.5
     resumes 500 Mb on the spare: finish at 8.0. *)
  checkf "finish after the backoff ladder" 8.0 (finish run);
  (* Without retry the flow just waits out the degradation and misses
     nothing here — but finishes much later. *)
  let noretry = Engine.run ~faults topo (Registry.make "lpst") [ one_task () ] in
  Alcotest.(check int) "no retries without the config" 0 noretry.Metrics.retries_attempted;
  Alcotest.(check bool) "retry finishes first" true (finish run < finish noretry)

(* ---- zero-latency equivalence and chaos invariants ---- *)

let chaos_scenario = Test_fault.chaos_scenario
let chaos_algorithms = Test_fault.chaos_algorithms
let chaos_watchdog = Test_fault.chaos_watchdog

(* A random-but-seeded detector config; confirm > 0 so seeded false
   positives are always legal. *)
let chaos_detector seed =
  let g = Prng.create (seed + 3) in
  Detector.v ~suspect:(Prng.float g 3.) ~confirm:(0.5 +. Prng.float g 3.) ~fp:(Prng.int g 3)
    ~fp_seed:(seed + 7)
    ~fp_horizon:(10. +. Prng.float g 50.)
    ()

let chaos_retry seed =
  let g = Prng.create (seed + 4) in
  Retry.v ~retries:(Prng.int g 4)
    ~timeout:(0.1 +. Prng.float g 2.)
    ~backoff:(1. +. Prng.float g 2.)
    ~resume:(Prng.bool g) ()

(* Earliest physical crash time per server (rack outages expanded), for
   the detection-time invariant. *)
let first_crash_times topo faults =
  let tbl = Hashtbl.create 16 in
  let note s t = if not (Hashtbl.mem tbl s) then Hashtbl.add tbl s t in
  List.iter
    (fun (ev : Fault.event) ->
      match ev.Fault.kind with
      | Fault.Server_crash s -> note s ev.Fault.time
      | Fault.Rack_outage r -> List.iter (fun s -> note s ev.Fault.time) (T.servers_in_rack topo r)
      | Fault.Server_recover _ | Fault.Link_degrade _ -> ())
    (Fault.events faults);
  tbl

let qcheck =
  let open QCheck in
  let seed = int_range 0 1_000_000 in
  let alg_and_seed = pair (oneofl chaos_algorithms) seed in
  [ Test.make ~name:"detector: specs round-trip" ~count:100 seed (fun seed ->
        let g = Prng.create seed in
        let c =
          Detector.v ~suspect:(Prng.float g 10.)
            ~confirm:(0.01 +. Prng.float g 10.)
            ~fp:(Prng.int g 5) ~fp_seed:(Prng.int g 10000)
            ~fp_horizon:(0.5 +. Prng.float g 100.)
            ()
        in
        match Detector.of_string (Detector.to_string c) with
        | Ok again -> String.equal (Detector.to_string c) (Detector.to_string again)
        | Error e -> Test.fail_reportf "seed %d: %s" seed e);
    Test.make ~name:"retry: specs round-trip" ~count:100 seed (fun seed ->
        let c = chaos_retry seed in
        match Retry.of_string (Retry.to_string c) with
        | Ok again -> String.equal (Retry.to_string c) (Retry.to_string again)
        | Error e -> Test.fail_reportf "seed %d: %s" seed e);
    Test.make ~name:"detector: detection never precedes injection" ~count:100 seed
      (fun seed ->
        let topo, _tasks, faults = chaos_scenario seed in
        let g = Prng.create (seed + 5) in
        let c = Detector.v ~suspect:(Prng.float g 3.) ~confirm:(Prng.float g 3.) () in
        let crash_t = first_crash_times topo faults in
        let ok = ref true in
        List.iter
          (fun (t, ev) ->
            let s =
              match ev with
              | Detector.Suspected s | Cleared s | Confirmed s | Seen_alive s -> s
            in
            match (ev, Hashtbl.find_opt crash_t s) with
            | Detector.Suspected _, Some t0 ->
              if t < t0 +. c.Detector.suspect -. 1e-9 then ok := false
            | Detector.Confirmed _, Some t0 ->
              if t < t0 +. c.Detector.suspect +. c.Detector.confirm -. 1e-9 then ok := false
            | Detector.Confirmed _, None -> ok := false  (* confirmed without a crash *)
            | _ -> ())
          (schedule topo c faults);
        !ok);
    Test.make ~name:"detector: zero latency replays the omniscient engine" ~count:60
      alg_and_seed (fun (name, seed) ->
        let topo, tasks, faults = chaos_scenario seed in
        let omni = Engine.run ~faults topo (Registry.make name) tasks in
        let det =
          Engine.run ~faults ~detector:zero_latency topo (Registry.make name) tasks
        in
        if not (String.equal (scrub omni) (scrub det)) then
          Test.fail_reportf "%s, seed %d: zero-latency run diverged" name seed
        else true);
    Test.make ~name:"detector: zero latency equivalence holds under watchdog + retry"
      ~count:40 alg_and_seed (fun (name, seed) ->
        let topo, tasks, faults = chaos_scenario seed in
        let watchdog = chaos_watchdog seed and retry = chaos_retry seed in
        let omni = Engine.run ~faults ~watchdog ~retry topo (Registry.make name) tasks in
        let det =
          Engine.run ~faults ~watchdog ~retry ~detector:zero_latency topo
            (Registry.make name) tasks
        in
        if not (String.equal (scrub omni) (scrub det)) then
          Test.fail_reportf "%s, seed %d: zero-latency run diverged (watchdog+retry)" name
            seed
        else true);
    Test.make ~name:"detector: chaos invariants hold under detection + retry" ~count:80
      alg_and_seed (fun (name, seed) ->
        let topo, tasks, faults = chaos_scenario seed in
        let run =
          Engine.run ~faults ~detector:(chaos_detector seed) ~retry:(chaos_retry seed)
            topo (Registry.make name) tasks
        in
        let useful =
          List.fold_left
            (fun acc (o : Metrics.outcome) ->
              if o.Metrics.completed then acc +. Task.total_volume o.Metrics.task else acc)
            0. run.Metrics.outcomes
        in
        let drift =
          Float.abs
            (run.Metrics.transferred
            -. (useful +. run.Metrics.wasted +. run.Metrics.shed_volume))
        in
        if drift > (1e-6 *. Float.max 1. run.Metrics.transferred) +. 1e-3 then
          Test.fail_reportf "%s, seed %d: conservation drift %.6f" name seed drift
        else if run.Metrics.bytes_resumed > run.Metrics.transferred +. 1e-6 then
          Test.fail_reportf "%s, seed %d: resumed more than was transferred" name seed
        else if run.Metrics.bytes_resumed < 0. || run.Metrics.wasted < 0. then
          Test.fail_reportf "%s, seed %d: negative byte accounting" name seed
        else if run.Metrics.detections > run.Metrics.suspicions then
          Test.fail_reportf "%s, seed %d: more confirmations than suspicions" name seed
        else if run.Metrics.clamp_events <> 0 then
          Test.fail_reportf "%s, seed %d: capacity clamped" name seed
        else true);
    Test.make ~name:"detector: detection runs replay byte-identically" ~count:30
      alg_and_seed (fun (name, seed) ->
        let once () =
          let topo, tasks, faults = chaos_scenario seed in
          Report.fingerprint
            (Engine.run ~faults ~detector:(chaos_detector seed) ~retry:(chaos_retry seed)
               topo (Registry.make name) tasks)
        in
        String.equal (once ()) (once ()))
  ]

let test_parallel_detection_determinism () =
  (* Detector + retry state is all per-run: 1-vs-4-domain sweeps of
     detection-enabled chaos runs must replay byte-identically. *)
  let job idx =
    let name = List.nth chaos_algorithms (idx mod List.length chaos_algorithms) in
    let topo, tasks, faults = chaos_scenario (3000 + idx) in
    Report.fingerprint
      (Engine.run ~faults
         ~detector:(chaos_detector idx)
         ~retry:(chaos_retry idx) topo (Registry.make name) tasks)
  in
  let seq = Sweep.map ~domains:1 8 job in
  let par = Sweep.map ~domains:4 8 job in
  Alcotest.(check (array string)) "4-domain detection sweep equals sequential" seq par

let tests =
  ( "detector",
    [ tc "detector spec round trip" `Quick test_detector_spec_roundtrip;
      tc "retry spec round trip" `Quick test_retry_spec_roundtrip;
      tc "schedule semantics" `Quick test_schedule_semantics;
      tc "schedule false positives" `Quick test_schedule_false_positives;
      tc "cursor" `Quick test_cursor;
      tc "golden: deferred settle + resume" `Quick test_golden_deferred_settle;
      tc "golden: blip unnoticed" `Quick test_golden_blip_unnoticed;
      tc "golden: same-instant bounce" `Quick test_golden_same_instant_bounce;
      tc "golden: suspected source avoided" `Quick test_golden_suspected_avoided;
      tc "golden: storm, resume vs restart" `Quick test_golden_storm_resume_beats_restart;
      tc "golden: retry ladder re-home" `Quick test_golden_retry_rehome;
      tc "parallel detection determinism" `Quick test_parallel_detection_determinism
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
