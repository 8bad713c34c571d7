(* End-to-end tests asserting the paper's qualitative results at small
   scale: the Fig. 1 example, the orderings of Fig. 2/3, and the
   trace-driven comparison of Fig. 4; and one scheduled repair carried
   through to the bytes it rebuilds. *)

module Engine = S3_sim.Engine
module Foreground = S3_sim.Foreground
module Metrics = S3_sim.Metrics
module Registry = S3_core.Registry
module Generator = S3_workload.Generator
module Trace = S3_workload.Trace
module Scenarios = S3_workload.Scenarios
module Cluster = S3_storage.Cluster
module Rs = S3_storage.Reed_solomon
module T = S3_net.Topology
module Prng = S3_util.Prng

let tc = Alcotest.test_case

let eval_topo = T.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500.

let workload ?(tasks = 120) ~rate seed =
  Generator.generate (Prng.create seed)
    eval_topo
    { Generator.num_tasks = tasks;
      arrival_rate = rate;
      chunk_size_mb = 64.;
      code_mix = [ ((9, 6), 1.) ];
      deadline_factor = 10.;
      deadline_jitter = 0.5;
      placement = S3_storage.Placement.Rack_aware
    }

let completed ?config name tasks =
  Metrics.completed (Engine.run ?config eval_topo (Registry.make name) tasks)

let test_fig1_lpst_completes_all () =
  let topo, tasks = Scenarios.fig1 () in
  let run = Engine.run topo (Registry.make "lpst") tasks in
  Alcotest.(check int) "all three meet deadlines" 3 (Metrics.completed run);
  (* The schedule finishes around the paper's 9.76 s. *)
  List.iter
    (fun (o : Metrics.outcome) ->
      Alcotest.(check bool) "done by 10.5" true (o.Metrics.finish_time <= 10.5))
    run.Metrics.outcomes

let test_fig1_strawmen_fail () =
  let topo, tasks = Scenarios.fig1 () in
  List.iter
    (fun name ->
      let run = Engine.run topo (Registry.make name) tasks in
      Alcotest.(check bool) (name ^ " misses a deadline") true (Metrics.completed run < 3))
    [ "sp-ff"; "edf-cong"; "fifo"; "edf" ]

let test_fig2_ordering_under_load () =
  (* At a pressured arrival rate the paper's ordering separates:
     LPST >= LPAll > Dis* > plain FIFO/EDF. *)
  let tasks = workload ~rate:1.0 41 in
  let lpst = completed "lpst" tasks in
  let lpall = completed "lpall" tasks in
  let disfifo = completed "disfifo" tasks in
  let fifo = completed "fifo" tasks in
  Alcotest.(check bool) "lpst >= lpall" true (lpst >= lpall);
  Alcotest.(check bool) "lpall > disfifo" true (lpall > disfifo);
  Alcotest.(check bool) "disfifo > fifo" true (disfifo > fifo);
  Alcotest.(check bool) "lpst >> fifo" true (lpst > 3 * fifo)

let test_fig3e_light_load_equalizes () =
  (* The paper: in the most sparse arrival pattern, many algorithms
     perform equally well. *)
  let tasks = workload ~tasks:60 ~rate:(1. /. 30.) 43 in
  List.iter
    (fun name -> Alcotest.(check int) (name ^ " completes all") 60 (completed name tasks))
    [ "fifo"; "disfifo"; "edf"; "disedf"; "lpall"; "lpst" ]

let test_fig3f_deadline_monotonicity () =
  let run factor =
    let tasks =
      Generator.generate (Prng.create 47) eval_topo
        { Generator.num_tasks = 100;
          arrival_rate = 1.0;
          chunk_size_mb = 64.;
          code_mix = [ ((9, 6), 1.) ];
          deadline_factor = factor;
          deadline_jitter = 0.;
          placement = S3_storage.Placement.Rack_aware
        }
    in
    completed "lpst" tasks
  in
  let tight = run 2. and mid = run 6. and loose = run 10. in
  Alcotest.(check bool)
    (Printf.sprintf "more slack, more completions (%d <= %d <= %d)" tight mid loose)
    true
    (tight <= mid && mid <= loose)

let test_fig3b_foreground_hurts_lpall_more () =
  let tasks = workload ~rate:1.2 53 in
  let with_fg name =
    completed ~config:{ Engine.foreground = Foreground.uniform ~max_frac:0.6; seed = 4 } name
      tasks
  in
  let lpst = with_fg "lpst" and lpall = with_fg "lpall" in
  Alcotest.(check bool)
    (Printf.sprintf "lpst (%d) leads lpall (%d) under heavy foreground" lpst lpall)
    true (lpst >= lpall)

let test_fig4_trace_ordering () =
  let g = Prng.create 59 in
  let records = Trace.synthetic g ~machines:30 ~tasks:800 in
  let tasks = Trace.to_tasks g eval_topo records ~chunk_size_mb:64. ~deadline_factor:10. in
  let lpst = completed "lpst" tasks in
  let lpall = completed "lpall" tasks in
  let fifo = completed "fifo" tasks in
  Alcotest.(check bool)
    (Printf.sprintf "lpst (%d) >= lpall (%d) > fifo (%d)" lpst lpall fifo)
    true
    (lpst >= lpall && lpall > fifo)

let test_lpst_on_other_topologies () =
  (* The paper's future work: LPST runs unchanged on fat-tree and
     BCube; only the topology module differs. *)
  List.iter
    (fun topo ->
      let cfg =
        { Generator.num_tasks = 40;
          arrival_rate = 0.5;
          chunk_size_mb = 16.;
          code_mix = [ ((4, 2), 1.) ];
          deadline_factor = 10.;
          deadline_jitter = 0.3;
          placement = S3_storage.Placement.Flat_uniform
        }
      in
      let tasks = Generator.generate (Prng.create 61) topo cfg in
      let run = Engine.run topo (Registry.make "lpst") tasks in
      Alcotest.(check bool)
        (T.name topo ^ " completes most tasks")
        true
        (Metrics.completed run >= 35);
      Alcotest.(check int) (T.name topo ^ " never violates capacity") 0 run.Metrics.clamp_events)
    [ T.fat_tree ~k:4 ~cst:500. ~cta:1000.;
      T.bcube ~ports:4 ~levels:2 ~cst:500. ~cta:1000.
    ]

let test_lpst_beats_ablations_under_pressure () =
  let tasks = workload ~tasks:150 ~rate:1.8 67 in
  let full = completed "lpst" tasks in
  List.iter
    (fun name ->
      let got = completed name tasks in
      Alcotest.(check bool)
        (Printf.sprintf "%s (%d) <= LPST (%d)" name got full)
        true (got <= full))
    [ "lpst-p1"; "lpst-p2"; "lpst-p3" ]

let test_storm_lpst_dominates () =
  (* Mini repair storm: rack failure, simultaneous deadline repairs. *)
  let g = Prng.create 71 in
  let topo4 = T.two_tier ~racks:4 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let cluster = S3_storage.Cluster.create topo4 in
  let _ = List.init 60 (fun _ ->
      S3_storage.Cluster.add_file cluster g ~n:9 ~k:6 ~chunk_volume:512. ()) in
  let tasks =
    List.concat_map
      (fun server ->
        Generator.repair_tasks_on_failure g cluster ~server ~now:0. ~deadline_factor:8.
          ~first_id:(server * 500))
      (T.servers_in_rack topo4 0)
  in
  let run name = Metrics.completed (Engine.run topo4 (Registry.make name) tasks) in
  let lpst = run "lpst" and disedf = run "disedf" and fifo = run "fifo" in
  Alcotest.(check bool)
    (Printf.sprintf "storm: lpst %d > disedf %d > fifo %d" lpst disedf fifo)
    true
    (lpst > disedf && disedf >= fifo)

(* Failure, repair task, LPST schedule: the k sources LPST picked hold
   shards that rebuild the lost one. *)
let test_scheduled_repair_end_to_end () =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:5 ~cst:500. ~cta:1500. in
  let g = Prng.create 101 in
  let code = Rs.make ~n:9 ~k:6 in
  let shards = Rs.encode code (Bytes.init 1024 (fun i -> Char.chr ((i * 37) land 0xff))) in
  let cluster = Cluster.create topo in
  let chunk_volume = float_of_int (Bytes.length shards.(0)) *. 8e-6 in
  let id = Cluster.add_file cluster g ~n:9 ~k:6 ~chunk_volume () in
  let victim = (Cluster.file cluster id).Cluster.locations.(4) in
  let tasks =
    Generator.repair_tasks_on_failure g cluster ~server:victim ~now:0. ~deadline_factor:10.
      ~first_id:0
  in
  let run = Engine.run topo (Registry.make "lpst") tasks in
  Alcotest.(check int) "repair scheduled in time" 1 (Metrics.completed run);
  let survivors = Cluster.survivors cluster id in
  let held =
    Array.to_list (List.hd run.Metrics.outcomes).Metrics.sources
    |> List.map (fun s ->
           let chunk, _ = List.find (fun (_, server) -> server = s) survivors in
           (chunk, shards.(chunk)))
  in
  Alcotest.(check int) "k sources" 6 (List.length held);
  Alcotest.(check bytes) "lost chunk rebuilt" shards.(4) (Rs.reconstruct code ~index:4 held)

let tests =
  ( "integration",
    [ tc "fig1: LPST completes all three" `Quick test_fig1_lpst_completes_all;
      tc "fig1: strawmen fail" `Quick test_fig1_strawmen_fail;
      tc "fig2 ordering under load" `Slow test_fig2_ordering_under_load;
      tc "fig3e light load equalizes" `Slow test_fig3e_light_load_equalizes;
      tc "fig3f deadline monotonicity" `Slow test_fig3f_deadline_monotonicity;
      tc "fig3b foreground hurts LPAll more" `Slow test_fig3b_foreground_hurts_lpall_more;
      tc "fig4 trace ordering" `Slow test_fig4_trace_ordering;
      tc "other topologies" `Slow test_lpst_on_other_topologies;
      tc "ablations never beat LPST" `Slow test_lpst_beats_ablations_under_pressure;
      tc "repair storm dominance" `Slow test_storm_lpst_dominates;
      tc "scheduled repair end to end" `Quick test_scheduled_repair_end_to_end
    ] )
