(* Engine, foreground, metrics and cloud-emulator tests. *)

module Engine = S3_sim.Engine
module Foreground = S3_sim.Foreground
module Metrics = S3_sim.Metrics
module Emulator = S3_cloud.Emulator
module Registry = S3_core.Registry
module Problem = S3_core.Problem
module Task = S3_workload.Task
module Generator = S3_workload.Generator
module T = S3_net.Topology
module Prng = S3_util.Prng

let tc = Alcotest.test_case
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let topo = Helpers.topo

let single_task ?(deadline = 10.) ?(volume = 1000.) () =
  Task.v ~id:0 ~arrival:0. ~deadline ~volume ~k:1 ~sources:[| 1 |] ~destination:0 ()

let workload ?(tasks = 60) ?(rate = 0.8) seed =
  let big = T.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let cfg =
    { Generator.num_tasks = tasks;
      arrival_rate = rate;
      chunk_size_mb = 64.;
      code_mix = [ ((9, 6), 1.) ];
      deadline_factor = 10.;
      deadline_jitter = 0.4;
      placement = S3_storage.Placement.Rack_aware
    }
  in
  (big, Generator.generate (Prng.create seed) big cfg)

let test_single_transfer () =
  let run = Engine.run topo (Registry.make "lpst") [ single_task () ] in
  Alcotest.(check int) "completed" 1 (Metrics.completed run);
  let o = List.hd run.Metrics.outcomes in
  (* 1000 Mb over a 1000 Mb/s path. *)
  checkf "finish time" 1. o.Metrics.finish_time;
  checkf "no remaining" 0. o.Metrics.remaining;
  checkf "transferred" 1000. run.Metrics.transferred

let test_deadline_miss_records_remaining () =
  (* 5000 Mb over a 1000 Mb/s path with a 2 s deadline: FIFO transfers
     2000 Mb by the deadline and the failure strands the other 3000. *)
  let run = Engine.run topo (Registry.make "fifo") [ single_task ~deadline:2. ~volume:5000. () ] in
  Alcotest.(check int) "completed" 0 (Metrics.completed run);
  let o = List.hd run.Metrics.outcomes in
  Alcotest.(check bool) "not completed" false o.Metrics.completed;
  checkf "remaining at deadline" 3000. o.Metrics.remaining;
  checkf "failure stamped at deadline" 2. o.Metrics.finish_time

let test_fifo_keeps_transferring_after_miss () =
  (* Deadline-blind FIFO finishes the doomed task anyway, so the whole
     volume moves even though the task failed. *)
  let run = Engine.run topo (Registry.make "fifo") [ single_task ~deadline:2. ~volume:5000. () ] in
  Alcotest.(check int) "completed" 0 (Metrics.completed run);
  checkf "full volume moved" 5000. run.Metrics.transferred;
  checkf "ran past the deadline" 5. run.Metrics.horizon

let test_lpst_rejects_hopeless_task () =
  (* LPST's admission control sees that 5000 Mb cannot cross a
     1000 Mb/s path in 2 s and never starts the doomed transfer. *)
  let run = Engine.run topo (Registry.make "lpst") [ single_task ~deadline:2. ~volume:5000. () ] in
  checkf "no wasted transfer" 0. run.Metrics.transferred;
  checkf "full volume stranded" 5000. (Metrics.remaining_volume_gb run *. 8000.);
  checkf "engine stops at the deadline" 2. run.Metrics.horizon

let test_completed_before_deadline_invariant () =
  let big, tasks = workload 3 in
  List.iter
    (fun name ->
      let run = Engine.run big (Registry.make name) tasks in
      List.iter
        (fun (o : Metrics.outcome) ->
          if o.Metrics.completed then begin
            Alcotest.(check bool) "finish <= deadline" true
              (o.Metrics.finish_time <= o.Metrics.task.Task.deadline +. 1e-6);
            Alcotest.(check bool) "finish >= arrival" true
              (o.Metrics.finish_time >= o.Metrics.task.Task.arrival -. 1e-6)
          end
          else
            Alcotest.(check bool) "failure has remaining volume" true (o.Metrics.remaining > 0.))
        run.Metrics.outcomes)
    [ "fifo"; "disfifo"; "edf"; "disedf"; "lpall"; "lpst" ]

let test_no_clamping_for_shipped_algorithms () =
  let big, tasks = workload 5 in
  List.iter
    (fun name ->
      let run = Engine.run big (Registry.make name) tasks in
      Alcotest.(check int) (name ^ " never violates capacity") 0 run.Metrics.clamp_events)
    Registry.names

let test_volume_conservation () =
  let big, tasks = workload 7 in
  let run = Engine.run big (Registry.make "lpst") tasks in
  let accounted =
    List.fold_left
      (fun acc (o : Metrics.outcome) ->
        if o.Metrics.completed then acc +. Task.total_volume o.Metrics.task
        else acc +. (Task.total_volume o.Metrics.task -. o.Metrics.remaining))
      0. run.Metrics.outcomes
  in
  Alcotest.(check bool)
    (Printf.sprintf "moved %.1f ~ accounted %.1f" run.Metrics.transferred accounted)
    true
    (Float.abs (run.Metrics.transferred -. accounted) <= 1e-3 *. accounted)

let test_determinism () =
  let big, tasks = workload 11 in
  let a = Engine.run big (Registry.make "lpst") tasks in
  let b = Engine.run big (Registry.make "lpst") tasks in
  Alcotest.(check int) "same completions" (Metrics.completed a) (Metrics.completed b);
  Alcotest.(check (float 1e-9)) "same transferred" a.Metrics.transferred b.Metrics.transferred

let test_on_event_sees_feasible_rates () =
  let big, tasks = workload ~tasks:20 13 in
  let ok = ref true in
  let hook _now view rates =
    if not (Helpers.respects_capacities view rates) then ok := false
  in
  ignore (Engine.run ~on_event:hook big (Registry.make "lpst") tasks);
  Alcotest.(check bool) "every event's rates fit" true !ok

let test_rejects_foreign_tasks () =
  let bad = Task.v ~id:0 ~arrival:0. ~deadline:1. ~volume:1. ~k:1 ~sources:[| 80 |]
      ~destination:0 () in
  Alcotest.check_raises "server range"
    (Invalid_argument "Engine.run: task references servers outside the topology") (fun () ->
      ignore (Engine.run topo (Registry.make "lpst") [ bad ]))

let test_rejects_duplicate_ids () =
  (* Both would report one outcome, the first task's, twice. *)
  let task ~volume ~deadline =
    Task.v ~id:7 ~arrival:0. ~deadline ~volume ~k:1 ~sources:[| 1 |] ~destination:0 ()
  in
  Alcotest.check_raises "shared id"
    (Invalid_argument "Engine.run: two tasks share the id 7") (fun () ->
      ignore
        (Engine.run topo (Registry.make "lpst")
           [ task ~volume:50. ~deadline:100.; task ~volume:5000. ~deadline:0.01 ]))

let test_empty_workload () =
  let run = Engine.run topo (Registry.make "lpst") [] in
  Alcotest.(check int) "no outcomes" 0 (List.length run.Metrics.outcomes);
  checkf "nothing moved" 0. run.Metrics.transferred

(* ---- Foreground ---- *)

let test_foreground_none () =
  let fg = Foreground.create (Prng.create 1) topo Foreground.none in
  checkf "full capacity" 1000. (Foreground.available fg 0);
  Alcotest.(check bool) "never changes" true (Foreground.next_change fg = infinity)

let test_foreground_uniform () =
  let fg = Foreground.create (Prng.create 2) topo (Foreground.uniform ~max_frac:0.4) in
  (* Occupancy is 1 - available / capacity. *)
  let occupancy e = 1. -. (Foreground.available fg e /. (T.entity topo e).T.capacity) in
  for e = 0 to Array.length (T.entities topo) - 1 do
    let f = occupancy e in
    Alcotest.(check bool) "in range" true (f >= -1e-12 && f < 0.4)
  done;
  checkf "first change at 5s" 5. (Foreground.next_change fg);
  let before = List.init 5 occupancy in
  Foreground.advance fg 12.;
  checkf "next change advances" 15. (Foreground.next_change fg);
  let after = List.init 5 occupancy in
  Alcotest.(check bool) "occupancies redrawn" true (before <> after)

let test_foreground_validation () =
  Alcotest.check_raises "max_frac" (Invalid_argument "Foreground.uniform: max_frac in [0,1)")
    (fun () -> ignore (Foreground.uniform ~max_frac:1.))

let test_foreground_reduces_throughput () =
  let big, tasks = workload ~tasks:40 ~rate:1.0 17 in
  let quiet = Engine.run big (Registry.make "lpall") tasks in
  let noisy =
    Engine.run
      ~config:{ Engine.foreground = Foreground.uniform ~max_frac:0.6; seed = 9 }
      big (Registry.make "lpall") tasks
  in
  Alcotest.(check bool) "foreground hurts" true
    (Metrics.completed noisy <= Metrics.completed quiet)

(* ---- Metrics ---- *)

let test_metrics_accessors () =
  let big, tasks = workload ~tasks:30 19 in
  let run = Engine.run big (Registry.make "lpst") tasks in
  checkf "fraction" (float_of_int (Metrics.completed run) /. 30.) (Metrics.completed_fraction run);
  List.iter
    (fun t -> Alcotest.(check bool) "normalized in (0, 1]" true (t > 0. && t <= 1. +. 1e-9))
    (Metrics.normalized_completion_times run);
  Alcotest.(check bool) "plan time measured" true (Metrics.mean_plan_time run >= 0.);
  Alcotest.(check bool) "events counted" true (run.Metrics.events > 0)

(* ---- Cloud emulator ---- *)

let test_emulator_close_to_sim () =
  let big, tasks = workload ~tasks:50 ~rate:0.1 23 in
  let sim = Engine.run big (Registry.make "lpst") tasks in
  let cloud = Emulator.run big (Registry.make "lpst") tasks in
  let diff =
    Float.abs (Metrics.completed_fraction sim -. Metrics.completed_fraction cloud)
  in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.2f vs cloud %.2f" (Metrics.completed_fraction sim)
       (Metrics.completed_fraction cloud))
    true (diff <= 0.05)

let test_emulator_determinism () =
  let big, tasks = workload ~tasks:30 29 in
  let a = Emulator.run big (Registry.make "lpst") tasks in
  let b = Emulator.run big (Registry.make "lpst") tasks in
  Alcotest.(check (float 1e-9)) "reproducible" a.Metrics.transferred b.Metrics.transferred

let test_emulator_slows_transfers () =
  (* Control-plane pauses and quantization only ever lose time. *)
  let t = single_task ~deadline:100. ~volume:5000. () in
  let sim = Engine.run topo (Registry.make "lpst") [ t ] in
  let cloud = Emulator.run topo (Registry.make "lpst") [ t ] in
  let ft r = (List.hd r.Metrics.outcomes).Metrics.finish_time in
  Alcotest.(check bool) "cloud never faster" true (ft cloud >= ft sim -. 1e-9)

let test_emulator_validation () =
  Alcotest.check_raises "latency bounds" (Invalid_argument "Emulator: control latency bounds")
    (fun () ->
      ignore
        (Emulator.data_plane
           { Emulator.default_config with Emulator.control_latency_min = 0.5;
             control_latency_max = 0.1
           }));
  Alcotest.check_raises "jitter" (Invalid_argument "Emulator: jitter_stddev must be in [0, 0.5)")
    (fun () ->
      ignore (Emulator.data_plane { Emulator.default_config with Emulator.jitter_stddev = 0.7 }))

let test_data_plane_freeze_semantics () =
  (* A constant 1 s control pause delays a 1 s transfer to finish at
     t = 2: the pause happens once, at the initial scheduling event. *)
  let dp =
    { Engine.control_latency = (fun () -> 1.); shape_rate = (fun ~flow_id:_ r -> r) }
  in
  let run =
    Engine.run ~data_plane:dp topo (Registry.make "lpst") [ single_task ~deadline:10. () ]
  in
  checkf "pause shifts completion" 2. (List.hd run.Metrics.outcomes).Metrics.finish_time;
  Alcotest.(check int) "still completes" 1 (Metrics.completed run)

let test_data_plane_rate_shaping_semantics () =
  (* Halving every rate doubles the transfer time. *)
  let dp =
    { Engine.control_latency = (fun () -> 0.); shape_rate = (fun ~flow_id:_ r -> r /. 2.) }
  in
  let run =
    Engine.run ~data_plane:dp topo (Registry.make "lpst") [ single_task ~deadline:10. () ]
  in
  checkf "half rate, double time" 2. (List.hd run.Metrics.outcomes).Metrics.finish_time

let test_data_plane_pause_can_cause_miss () =
  (* Tight deadline + heavy control latency: the sim completes, the
     sluggish data plane misses — exactly the gap the paper measured
     between simulator and cloud at 2.2%. *)
  let dp =
    { Engine.control_latency = (fun () -> 1.5); shape_rate = (fun ~flow_id:_ r -> r) }
  in
  let t = single_task ~deadline:2. () in
  let sim = Engine.run topo (Registry.make "lpst") [ t ] in
  let slow = Engine.run ~data_plane:dp topo (Registry.make "lpst") [ t ] in
  Alcotest.(check int) "sim completes" 1 (Metrics.completed sim);
  Alcotest.(check int) "paused data plane misses" 0 (Metrics.completed slow)

let test_data_plane_shaping_bounded () =
  let dp = Emulator.data_plane Emulator.default_config in
  for i = 1 to 200 do
    let r = float_of_int i *. 3.7 in
    let shaped = dp.Engine.shape_rate ~flow_id:i r in
    Alcotest.(check bool) "never exceeds assignment" true (shaped <= r +. 1e-9);
    Alcotest.(check bool) "non-negative" true (shaped >= 0.)
  done

let tests =
  ( "sim",
    [ tc "single transfer" `Quick test_single_transfer;
      tc "deadline miss records remaining" `Quick test_deadline_miss_records_remaining;
      tc "fifo keeps transferring after miss" `Quick test_fifo_keeps_transferring_after_miss;
      tc "lpst rejects hopeless task" `Quick test_lpst_rejects_hopeless_task;
      tc "completions beat deadlines" `Slow test_completed_before_deadline_invariant;
      tc "no clamping for shipped algorithms" `Slow test_no_clamping_for_shipped_algorithms;
      tc "volume conservation" `Quick test_volume_conservation;
      tc "determinism" `Quick test_determinism;
      tc "event rates always feasible" `Quick test_on_event_sees_feasible_rates;
      tc "rejects foreign tasks" `Quick test_rejects_foreign_tasks;
      tc "rejects two tasks with one id" `Quick test_rejects_duplicate_ids;
      tc "empty workload" `Quick test_empty_workload;
      tc "foreground none" `Quick test_foreground_none;
      tc "foreground uniform" `Quick test_foreground_uniform;
      tc "foreground validation" `Quick test_foreground_validation;
      tc "foreground reduces throughput" `Slow test_foreground_reduces_throughput;
      tc "metrics accessors" `Quick test_metrics_accessors;
      tc "emulator close to sim" `Slow test_emulator_close_to_sim;
      tc "emulator determinism" `Quick test_emulator_determinism;
      tc "emulator slows transfers" `Quick test_emulator_slows_transfers;
      tc "emulator validation" `Quick test_emulator_validation;
      tc "data plane freeze semantics" `Quick test_data_plane_freeze_semantics;
      tc "data plane rate shaping" `Quick test_data_plane_rate_shaping_semantics;
      tc "data plane pause can cause miss" `Quick test_data_plane_pause_can_cause_miss;
      tc "data plane shaping bounded" `Quick test_data_plane_shaping_bounded
    ] )
