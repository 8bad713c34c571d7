module Task = S3_workload.Task
module Generator = S3_workload.Generator
module Trace = S3_workload.Trace
module Cluster = S3_storage.Cluster
module T = S3_net.Topology
module Prng = S3_util.Prng

let tc = Alcotest.test_case
let topo = T.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500.

(* ---- Task ---- *)

let valid_task ?(volume = 512.) ?(k = 2) () =
  Task.v ~id:0 ~arrival:1. ~deadline:10. ~volume ~k ~sources:[| 1; 2; 3 |] ~destination:0 ()

let test_task_constructor () =
  let t = valid_task () in
  Alcotest.(check (float 1e-9)) "total volume" 1024. (Task.total_volume t)

let test_task_validation () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Task.v: deadline must follow arrival" (fun () ->
      ignore (Task.v ~id:0 ~arrival:5. ~deadline:5. ~volume:1. ~k:1 ~sources:[| 1 |]
                ~destination:0 ()));
  expect "Task.v: volume must be positive" (fun () ->
      ignore (Task.v ~id:0 ~arrival:0. ~deadline:1. ~volume:0. ~k:1 ~sources:[| 1 |]
                ~destination:0 ()));
  expect "Task.v: fewer candidate sources than k" (fun () ->
      ignore (Task.v ~id:0 ~arrival:0. ~deadline:1. ~volume:1. ~k:2 ~sources:[| 1 |]
                ~destination:0 ()));
  expect "Task.v: a source equals the destination" (fun () ->
      ignore (Task.v ~id:0 ~arrival:0. ~deadline:1. ~volume:1. ~k:1 ~sources:[| 0 |]
                ~destination:0 ()));
  expect "Task.v: duplicate source" (fun () ->
      ignore (Task.v ~id:0 ~arrival:0. ~deadline:1. ~volume:1. ~k:1 ~sources:[| 1; 1 |]
                ~destination:0 ()));
  (* NaN fails every ordered comparison, so each non-finite field needs
     its own check. *)
  List.iter
    (fun (arrival, deadline, volume) ->
      expect "Task.v: arrival, deadline and volume must be finite" (fun () ->
          ignore (Task.v ~id:0 ~arrival ~deadline ~volume ~k:1 ~sources:[| 1 |] ~destination:0 ())))
    [ (nan, 1., 1.); (infinity, 1., 1.); (0., nan, 1.); (0., infinity, 1.); (0., 1., nan);
      (0., 1., infinity)
    ]

let test_task_ordering () =
  let t1 = Task.v ~id:0 ~arrival:1. ~deadline:9. ~volume:1. ~k:1 ~sources:[| 1 |] ~destination:0 () in
  let t2 = Task.v ~id:1 ~arrival:2. ~deadline:8. ~volume:1. ~k:1 ~sources:[| 1 |] ~destination:0 () in
  Alcotest.(check bool) "arrival order" true (Task.compare_arrival t1 t2 < 0);
  Alcotest.(check bool) "arrival ties by id" true
    (Task.compare_arrival t1 { t2 with Task.id = 5; arrival = 1. } < 0)

(* ---- Generator ---- *)

let cfg ?(tasks = 100) ?(jitter = 0.) ?(mix = [ ((9, 6), 1.) ]) () =
  { Generator.num_tasks = tasks;
    arrival_rate = 0.5;
    chunk_size_mb = 64.;
    code_mix = mix;
    deadline_factor = 10.;
    deadline_jitter = jitter;
    placement = S3_storage.Placement.Rack_aware
  }

let test_generate_invariants () =
  let tasks = Generator.generate (Prng.create 1) topo (cfg ()) in
  Alcotest.(check int) "count" 100 (List.length tasks);
  let prev = ref (-1.) in
  List.iter
    (fun (t : Task.t) ->
      Alcotest.(check bool) "arrivals nondecreasing" true (t.Task.arrival >= !prev);
      prev := t.Task.arrival;
      Alcotest.(check int) "k" 6 t.Task.k;
      Alcotest.(check int) "candidates n-1" 8 (Array.length t.Task.sources);
      Alcotest.(check (float 1e-9)) "volume Mb" 512. t.Task.volume;
      (* deadline = 10 x (6 x 512 / 500) *)
      Alcotest.(check (float 1e-6)) "deadline offset" 61.44 (t.Task.deadline -. t.Task.arrival))
    tasks

let test_generate_jitter () =
  let tasks = Generator.generate (Prng.create 2) topo (cfg ~jitter:0.5 ()) in
  let offsets = List.map (fun (t : Task.t) -> t.Task.deadline -. t.Task.arrival) tasks in
  let lo = S3_util.Stats.minimum offsets and hi = S3_util.Stats.maximum offsets in
  Alcotest.(check bool) "spread" true (hi -. lo > 10.);
  Alcotest.(check bool) "within [0.5x, 1.5x]" true (lo >= 0.5 *. 61.44 -. 1e-6 && hi <= 1.5 *. 61.44 +. 1e-6)

let test_generate_mix () =
  let mix = [ ((9, 6), 0.5); ((14, 10), 0.5) ] in
  let tasks = Generator.generate (Prng.create 3) topo (cfg ~tasks:400 ~mix ()) in
  let k6 = List.length (List.filter (fun (t : Task.t) -> t.Task.k = 6) tasks) in
  let k10 = List.length (List.filter (fun (t : Task.t) -> t.Task.k = 10) tasks) in
  Alcotest.(check int) "partition" 400 (k6 + k10);
  Alcotest.(check bool) "roughly even" true (abs (k6 - k10) < 120)

let test_generate_determinism () =
  let a = Generator.generate (Prng.create 9) topo (cfg ()) in
  let b = Generator.generate (Prng.create 9) topo (cfg ()) in
  Alcotest.(check bool) "same seed same workload" true (a = b)

let test_generate_validation () =
  Alcotest.check_raises "rate" (Invalid_argument "Generator: arrival_rate must be positive")
    (fun () ->
      ignore
        (Generator.generate (Prng.create 1) topo
           { (cfg ()) with Generator.arrival_rate = 0. }));
  Alcotest.check_raises "jitter" (Invalid_argument "Generator: deadline_jitter must be in [0, 1)")
    (fun () ->
      ignore
        (Generator.generate (Prng.create 1) topo
           { (cfg ()) with Generator.deadline_jitter = 1. }))

let test_repair_tasks_on_failure () =
  let g = Prng.create 13 in
  let cluster = Cluster.create topo in
  let files = List.init 20 (fun _ -> Cluster.add_file cluster g ~n:9 ~k:6 ~chunk_volume:512. ()) in
  ignore files;
  let tasks =
    Generator.repair_tasks_on_failure g cluster ~server:0 ~now:5. ~deadline_factor:8.
      ~first_id:100
  in
  List.iter
    (fun (t : Task.t) ->
      Alcotest.(check bool) "id offset" true (t.Task.id >= 100);
      Alcotest.(check (float 1e-9)) "arrival now" 5. t.Task.arrival;
      Alcotest.(check bool) "dest not failed server" true (t.Task.destination <> 0);
      Alcotest.(check bool) "sources exclude failed" true
        (not (Array.exists (fun s -> s = 0) t.Task.sources)))
    tasks;
  Alcotest.(check bool) "some repairs generated" true (List.length tasks > 0)

let test_rebalance_tasks () =
  let g = Prng.create 14 in
  let cluster = Cluster.create topo in
  let id = Cluster.add_file cluster g ~n:4 ~k:2 ~chunk_volume:256. () in
  let f = Cluster.file cluster id in
  let holder = f.Cluster.locations.(1) in
  let target = List.find (fun s -> not (Array.exists (fun x -> x = s) f.Cluster.locations))
      (List.filter (Cluster.alive cluster) (List.init (T.servers topo) Fun.id)) in
  let tasks =
    Generator.rebalance_tasks g cluster ~moves:[ (id, 1, target) ] ~now:0.
      ~deadline_factor:10. ~first_id:0
  in
  (match tasks with
   | [ t ] ->
     Alcotest.(check int) "k 1" 1 t.Task.k;
     Alcotest.(check (array int)) "source is holder" [| holder |] t.Task.sources;
     Alcotest.(check int) "dest" target t.Task.destination
   | _ -> Alcotest.fail "one move expected");
  (* Moving to the current holder is a no-op. *)
  Alcotest.(check int) "self move skipped" 0
    (List.length
       (Generator.rebalance_tasks g cluster ~moves:[ (id, 1, holder) ] ~now:0.
          ~deadline_factor:10. ~first_id:0))

(* ---- Trace ---- *)

let test_trace_parse () =
  let body = "# comment\n1.5,3\n\n2.25,7\n" in
  let records = Trace.parse body in
  Alcotest.(check int) "two records" 2 (List.length records);
  Alcotest.(check (float 1e-9)) "time" 2.25 (List.nth records 1).Trace.time;
  Alcotest.(check int) "machine" 3 (List.hd records).Trace.machine

let test_trace_roundtrip () =
  let records = Trace.synthetic (Prng.create 8) ~machines:10 ~tasks:200 in
  Alcotest.(check int) "count" 200 (List.length records);
  let reparsed = Trace.parse (Trace.to_csv records) in
  Alcotest.(check int) "roundtrip count" 200 (List.length reparsed);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "machine" a.Trace.machine b.Trace.machine;
      Alcotest.(check (float 1e-5)) "time" a.Trace.time b.Trace.time)
    records reparsed

let test_trace_sorted () =
  let records = Trace.synthetic (Prng.create 9) ~machines:5 ~tasks:500 in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Trace.time <= b.Trace.time && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted records);
  List.iter
    (fun r -> Alcotest.(check bool) "machine range" true (r.Trace.machine >= 0 && r.Trace.machine < 5))
    records

let test_trace_parse_errors () =
  Alcotest.check_raises "malformed" (Invalid_argument "Trace.parse_line: malformed \"x,y\"")
    (fun () -> ignore (Trace.parse "x,y"));
  Alcotest.check_raises "arity" (Invalid_argument "Trace.parse_line: malformed \"1,2,3\"")
    (fun () -> ignore (Trace.parse "1,2,3"));
  Alcotest.check_raises "infinite time" (Invalid_argument "Trace.parse_line: malformed \"inf,2\"")
    (fun () -> ignore (Trace.parse "inf,2"));
  Alcotest.check_raises "NaN time" (Invalid_argument "Trace.parse_line: malformed \"nan,2\"")
    (fun () -> ignore (Trace.parse "nan,2"));
  Alcotest.(check bool) "comment skipped" true (Trace.parse "# hi" = []);
  Alcotest.(check bool) "blank skipped" true (Trace.parse "   " = [])

let test_trace_to_tasks () =
  let g = Prng.create 10 in
  let records = [ { Trace.time = 100.; machine = 2 }; { Trace.time = 103.; machine = 77 } ] in
  let tasks = Trace.to_tasks g topo records ~chunk_size_mb:64. ~deadline_factor:10. in
  (match tasks with
   | [ a; b ] ->
     Alcotest.(check (float 1e-9)) "shifted to 0" 0. a.Task.arrival;
     Alcotest.(check (float 1e-9)) "gap kept" 3. b.Task.arrival;
     Alcotest.(check int) "k = 1" 1 a.Task.k;
     Alcotest.(check (array int)) "source = machine" [| 2 |] a.Task.sources;
     Alcotest.(check (array int)) "machine wraps" [| 77 mod 30 |] b.Task.sources;
     Alcotest.(check bool) "dest differs" true (a.Task.destination <> 2)
   | _ -> Alcotest.fail "two tasks expected")

let test_scenario_fig1 () =
  let _topo, tasks = S3_workload.Scenarios.fig1 () in
  Alcotest.(check int) "three tasks" 3 (List.length tasks);
  List.iter
    (fun (t : Task.t) -> Alcotest.(check int) "k = 2" 2 t.Task.k)
    tasks

let tests =
  ( "workload",
    [ tc "task constructor" `Quick test_task_constructor;
      tc "task validation" `Quick test_task_validation;
      tc "task ordering" `Quick test_task_ordering;
      tc "generate invariants" `Quick test_generate_invariants;
      tc "generate jitter" `Quick test_generate_jitter;
      tc "generate code mix" `Quick test_generate_mix;
      tc "generate determinism" `Quick test_generate_determinism;
      tc "generate validation" `Quick test_generate_validation;
      tc "repair tasks on failure" `Quick test_repair_tasks_on_failure;
      tc "rebalance tasks" `Quick test_rebalance_tasks;
      tc "trace parse" `Quick test_trace_parse;
      tc "trace roundtrip" `Quick test_trace_roundtrip;
      tc "trace sorted" `Quick test_trace_sorted;
      tc "trace parse errors" `Quick test_trace_parse_errors;
      tc "trace to tasks" `Quick test_trace_to_tasks;
      tc "fig1 scenario" `Quick test_scenario_fig1
    ] )
