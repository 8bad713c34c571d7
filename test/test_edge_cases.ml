(* Edge cases across modules that the mainline suites do not pin down. *)

module T = S3_net.Topology
module Placement = S3_storage.Placement
module Cluster = S3_storage.Cluster
module Rs = S3_storage.Reed_solomon
module Task = S3_workload.Task
module Trace = S3_workload.Trace
module Lpst = S3_core.Lpst
module Engine = S3_sim.Engine
module Metrics = S3_sim.Metrics
module Registry = S3_core.Registry
module Prng = S3_util.Prng
open Helpers

let tc = Alcotest.test_case

let test_fat_tree_ecmp_spreads () =
  (* Across many server pairs, hash-based path choice should use every
     core switch of a k=4 fat tree. *)
  let t = T.fat_tree ~k:4 ~cst:100. ~cta:400. in
  let cores = Hashtbl.create 8 in
  for src = 0 to T.servers t - 1 do
    for dst = 0 to T.servers t - 1 do
      if T.rack_of t src <> T.rack_of t dst then
        List.iter
          (fun e ->
            if (T.entity t e).T.kind = T.Core_switch then Hashtbl.replace cores e ())
          (T.route t ~src ~dst)
    done
  done;
  Alcotest.(check int) "all 4 cores used" 4 (Hashtbl.length cores)

let test_leaf_spine_ecmp_spreads () =
  let t = T.leaf_spine ~leaves:4 ~spines:3 ~servers_per_leaf:6 ~cst:100. ~cta:400. in
  let spines = Hashtbl.create 8 in
  for src = 0 to T.servers t - 1 do
    for dst = 0 to T.servers t - 1 do
      List.iter
        (fun e -> if (T.entity t e).T.kind = T.Spine_switch then Hashtbl.replace spines e ())
        (T.route t ~src ~dst)
    done
  done;
  Alcotest.(check int) "all 3 spines used" 3 (Hashtbl.length spines)

let test_rack_aware_balance_is_tight () =
  (* For any n, per-rack counts differ by at most one. *)
  let topo = T.two_tier ~racks:4 ~servers_per_rack:6 ~cst:1. ~cta:1. in
  let g = Prng.create 55 in
  for n = 1 to 24 do
    let placed = Placement.place g topo Placement.Rack_aware ~object_id:n ~n in
    let counts =
      List.init 4 (fun r ->
          Array.to_list placed |> List.filter (fun s -> T.rack_of topo s = r) |> List.length)
    in
    let mx = List.fold_left max 0 counts and mn = List.fold_left min 99 counts in
    Alcotest.(check bool) (Printf.sprintf "n=%d tight" n) true (mx - mn <= 1)
  done

let test_cluster_exact_fit () =
  (* Placing n chunks when exactly n servers are alive must succeed and
     use every server. *)
  let topo = T.two_tier ~racks:2 ~servers_per_rack:3 ~cst:1. ~cta:1. in
  let c = Cluster.create topo in
  let g = Prng.create 77 in
  ignore (Cluster.fail_server c 5);
  let id = Cluster.add_file c g ~n:5 ~k:3 ~chunk_volume:1. () in
  let locs = List.sort compare (Array.to_list (Cluster.file c id).Cluster.locations) in
  Alcotest.(check (list int)) "all alive servers used" [ 0; 1; 2; 3; 4 ] locs

let test_rs_14_10 () =
  (* The Facebook HDFS code from the evaluation, round-tripped. *)
  let g = Prng.create 3 in
  let code = Rs.make ~n:14 ~k:10 in
  let data = Bytes.init 4093 (fun _ -> Char.chr (Prng.int g 256)) in
  let shards = Rs.encode code data in
  let survivors =
    Array.to_list (Array.mapi (fun i s -> (i, s)) shards)
    |> List.filter (fun (i, _) -> i <> 0 && i <> 5 && i <> 11 && i <> 13)
  in
  let subset = Prng.sample g 10 survivors in
  Alcotest.(check bytes) "recovers from 4 losses" data
    (Rs.decode ~length:(Bytes.length data) code subset)

let test_lpst_arrival_order_admission () =
  (* Arrival-order admission (the ablation heuristic) admits the older
     task even when the newer one is more urgent. *)
  let older = task ~id:1 ~arrival:0. ~deadline:100. ~volume:9000. ~sources:[| 1 |] ~destination:0 () in
  let newer = task ~id:2 ~arrival:1. ~deadline:11. ~volume:9500. ~sources:[| 2 |] ~destination:0 () in
  let v = view ~now:1. (flows_of older @ flows_of newer) in
  (* Under [Lrb_only] exactly the admitted tasks get bandwidth. *)
  let ids admission =
    let alg = Lpst.lpst ~admission ~bandwidth:Lpst.Lrb_only () in
    alg.S3_core.Algorithm.allocate v
    |> List.filter_map (fun (fid, rate) -> if rate > 0. then Some (fid / 100) else None)
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int)) "arrival order favours the older" [ 1 ] (ids Lpst.Arrival_order);
  Alcotest.(check (list int)) "rtf order favours the urgent" [ 2 ] (ids Lpst.Rtf_order)

let test_trace_burstiness () =
  (* The synthetic trace must actually be bursty: its peak 10-second
     window should hold far more than the average share of arrivals. *)
  let records = Trace.synthetic (Prng.create 99) ~machines:30 ~tasks:3000 in
  let times = List.map (fun r -> r.Trace.time) records in
  let horizon = S3_util.Stats.maximum times in
  let busiest =
    List.fold_left
      (fun acc t ->
        let in_window =
          List.length (List.filter (fun u -> u >= t && u < t +. 10.) times)
        in
        max acc in_window)
      0 times
  in
  let average_share = 3000. *. 10. /. horizon in
  Alcotest.(check bool)
    (Printf.sprintf "peak window %d >> average %.1f" busiest average_share)
    true
    (float_of_int busiest > 5. *. average_share)

let test_engine_identical_deadlines_tiebreak () =
  (* Two tasks with byte-identical parameters: deterministic outcome,
     both complete, no stall. *)
  let topo = T.two_tier ~racks:3 ~servers_per_rack:3 ~cst:1000. ~cta:3000. in
  let mk id src dst =
    Task.v ~id ~arrival:0. ~deadline:10. ~volume:2000. ~k:1 ~sources:[| src |]
      ~destination:dst ()
  in
  let run = Engine.run topo (Registry.make "lpst") [ mk 0 1 0; mk 1 2 3 ] in
  Alcotest.(check int) "both complete" 2 (Metrics.completed run)

let test_zero_available_capacity () =
  (* Foreground occupying ~everything: LPST admits nothing, tasks fail
     cleanly at their deadlines, engine terminates. *)
  let topo = T.two_tier ~racks:3 ~servers_per_rack:3 ~cst:1000. ~cta:3000. in
  let t = Task.v ~id:0 ~arrival:0. ~deadline:2. ~volume:1900. ~k:1 ~sources:[| 1 |]
      ~destination:0 () in
  let config =
    { Engine.foreground = { S3_sim.Foreground.max_frac = 0.999; change_interval = 1000. };
      seed = 1
    }
  in
  let run = Engine.run ~config topo (Registry.make "lpst") [ t ] in
  Alcotest.(check int) "fails" 0 (Metrics.completed run);
  Alcotest.(check int) "no clamping even at the edge" 0 run.Metrics.clamp_events

(* The CLI's [run] workload (two_tier(3x10), 500/1500 Mb/s, (9,6),
   rate 0.5/s, deadline factor 10 with jitter 0.5, seed 11) with five
   tasks of [chunk] MB, run to the end: no clamping, and every
   transferred bit is completed, wasted or shed. *)
let run_to_the_end ?faults ?detector ~chunk alg =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let cfg =
    { S3_workload.Generator.num_tasks = 5;
      arrival_rate = 0.5;
      chunk_size_mb = chunk;
      code_mix = [ ((9, 6), 1.) ];
      deadline_factor = 10.;
      deadline_jitter = 0.5;
      placement = Placement.Rack_aware
    }
  in
  let tasks = S3_workload.Generator.generate (Prng.create 11) topo cfg in
  let config = { Engine.foreground = S3_sim.Foreground.none; seed = 12 } in
  let run = Engine.run ~config ?faults ?detector topo (Registry.make alg) tasks in
  let completed =
    List.fold_left
      (fun acc (o : Metrics.outcome) ->
        if o.Metrics.completed then acc +. Task.total_volume o.Metrics.task else acc)
      0. run.Metrics.outcomes
  in
  Alcotest.(check int) "every task resolved" 5 (List.length run.Metrics.outcomes);
  Alcotest.(check int) "no clamping" 0 run.Metrics.clamp_events;
  let accounted = completed +. run.Metrics.wasted +. run.Metrics.shed_volume in
  Alcotest.(check bool)
    (Printf.sprintf "transferred %.17g = completed + wasted + shed %.17g"
       run.Metrics.transferred accounted)
    true
    (Float.abs (run.Metrics.transferred -. accounted)
    <= (1e-9 *. Float.max 1. run.Metrics.transferred));
  run

(* Huge chunks push the clock to ~5e7 s, where a flow with just over
   [volume_epsilon] left finishes in less than one ulp of [now]. *)
let test_coarse_clock_completion () =
  let run = run_to_the_end ~chunk:1e9 "lpst" in
  Alcotest.(check int) "all complete" 5 (Metrics.completed run)

(* A detector that confirms a crash 1e15 s late: at that clock one ulp
   is 0.125 s, longer than the re-homed fetch's last 12 Mb take. *)
let test_coarse_clock_after_late_detection () =
  let faults =
    match S3_fault.Fault.of_string "crash@1:0" with Ok f -> f | Error e -> failwith e
  in
  let run =
    run_to_the_end ~faults ~detector:(S3_fault.Detector.v ~suspect:1e15 ()) ~chunk:64. "fifo"
  in
  Alcotest.(check int) "the crash is confirmed" 1 run.Metrics.detections

let tests =
  ( "edge_cases",
    [ tc "fat-tree ECMP spreads over cores" `Quick test_fat_tree_ecmp_spreads;
      tc "leaf-spine ECMP spreads over spines" `Quick test_leaf_spine_ecmp_spreads;
      tc "rack-aware balance tight" `Quick test_rack_aware_balance_is_tight;
      tc "cluster exact fit" `Quick test_cluster_exact_fit;
      tc "reed-solomon (14,10)" `Quick test_rs_14_10;
      tc "lpst arrival-order admission" `Quick test_lpst_arrival_order_admission;
      tc "trace burstiness" `Quick test_trace_burstiness;
      tc "identical tasks tiebreak" `Quick test_engine_identical_deadlines_tiebreak;
      tc "near-zero available capacity" `Quick test_zero_available_capacity;
      tc "completion below the clock's resolution" `Quick test_coarse_clock_completion;
      tc "coarse clock after a late detection" `Quick test_coarse_clock_after_late_detection
    ] )
