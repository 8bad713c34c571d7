(* Regenerators for every table and figure of the paper's evaluation
   (§5). Each [figN ()] prints the same rows/series the paper reports;
   EXPERIMENTS.md records paper-vs-measured. Environment knobs:
     S3_BENCH_TASKS  tasks per simulation run   (default 1000, Table 3)
     S3_TRACE_TASKS  tasks for the Fig. 4 trace (default 6000; paper scale 20000)  *)

module Topology = S3_net.Topology
module Task = S3_workload.Task
module Generator = S3_workload.Generator
module Trace = S3_workload.Trace
module Scenarios = S3_workload.Scenarios
module Registry = S3_core.Registry
module Fault = S3_fault.Fault
module Engine = S3_sim.Engine
module Watchdog = S3_sim.Watchdog
module Foreground = S3_sim.Foreground
module Metrics = S3_sim.Metrics
module Emulator = S3_cloud.Emulator
module Table = S3_util.Table
module Stats = S3_util.Stats
module Prng = S3_util.Prng
module Sweep = S3_par.Sweep
module Report = S3_sim.Report

let getenv_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some v when v > 0 -> v
    | _ -> default)

let num_tasks () = getenv_int "S3_BENCH_TASKS" 1000

(* The paper's trace experiment uses 20000 tasks; the default here is
   6000 so the whole suite finishes in ~20 minutes on one core (the
   deadline-blind baselines backlog quadratically on the overloaded
   trace). Set S3_TRACE_TASKS=20000 to run at paper scale. *)
let trace_tasks () = getenv_int "S3_TRACE_TASKS" 6000

(* The evaluation cluster: 3 racks x 10 servers, 500/1500 Mb/s —
   Table 3 and the paper's OpenStack topology. *)
let topo () = Topology.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500.

let workload_seed = 11

(* Deadline-factor jitter 0.5 reflects the paper's "wide spanning task
   deadline settings" and keeps deadline order distinct from arrival
   order (see DESIGN.md assumptions). *)
let config ?(rate = Generator.baseline.Generator.arrival_rate) ?(tasks = num_tasks ())
    ?(chunk = 64.) ?(mix = [ ((9, 6), 1.) ]) ?(factor = 10.) ?(jitter = 0.5) () =
  { Generator.num_tasks = tasks;
    arrival_rate = rate;
    chunk_size_mb = chunk;
    code_mix = mix;
    deadline_factor = factor;
    deadline_jitter = jitter;
    placement = S3_storage.Placement.Rack_aware
  }

let tasks_of cfg = Generator.generate (Prng.create workload_seed) (topo ()) cfg

let heading title =
  Printf.printf "\n=== %s ===\n" title

let print_table ?align ~header rows = print_endline (Table.render ?align ~header rows)

let simulate ?config:engine_config name tasks =
  Engine.run ?config:engine_config (topo ()) (Registry.make name) tasks

let pct x = Table.fmt_pct x
let f2 = Table.fmt_float ~decimals:2

(* ------------------------------------------------------------------ *)
(* Table 2 / Fig. 1: the illustrative example.                         *)

let table2 () =
  heading "Table 2: LPST on the Fig. 1 example (3 repair tasks, (4,2) code)";
  let topo, tasks = Scenarios.fig1 () in
  let names = [ "sp-ff"; "edf-cong"; "fifo"; "edf"; "disedf"; "lpall"; "lpst" ] in
  let rows =
    List.map
      (fun name ->
        let run = Engine.run topo (Registry.make name) tasks in
        let per_task =
          List.map
            (fun (o : Metrics.outcome) ->
              if o.Metrics.completed then Printf.sprintf "%.2fs" o.Metrics.finish_time
              else "MISS")
            run.Metrics.outcomes
        in
        (run.Metrics.algorithm :: per_task)
        @ [ string_of_int (Metrics.completed run) ^ "/3" ])
      names
  in
  print_table ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "algorithm"; "task A (d=10s)"; "task B (d=10.5s)"; "task C (d=15s)"; "met" ]
    rows;
  print_endline
    "paper: Policy 1 (SP+FirstFit) and Policy 2 (EDF + congestion-aware sources) both miss \
     a deadline; only the joint RTF-based schedule completes all 3 (LPST, by ~9.76s)";
  (* The step-by-step LPST trace of Table 2 for this scenario: *)
  print_endline "\nLPST event trace (time, per-flow rate assignments in Mb/s):";
  let hook now view rates =
    let parts =
      List.filter_map
        (fun (f : S3_core.Problem.flow) ->
          match List.assoc_opt f.S3_core.Problem.flow_id rates with
          | Some r when r > 0.01 ->
            Some
              (Printf.sprintf "%c%d<-s%d@%.0f"
                 (Char.chr (Char.code 'A' + f.S3_core.Problem.task.Task.id))
                 f.S3_core.Problem.task.Task.id f.S3_core.Problem.source r)
          | _ -> None)
        (Lazy.force view.S3_core.Problem.flows)
    in
    if parts <> [] then Printf.printf "  t=%6.2f  %s\n" now (String.concat "  " parts)
  in
  ignore (Engine.run ~on_event:hook topo (Registry.make "lpst") tasks)

(* ------------------------------------------------------------------ *)
(* Fig. 2: baseline comparison, simulation vs emulated cloud.          *)

(* Sweep rows run in parallel across domains (see lib/par): each job
   builds its own topology and algorithm instances and only reads the
   shared immutable task list, and [Sweep.map_list] returns rows in
   input order, so the printed tables are byte-identical to a
   sequential run. *)
let fig2_rows ~rate ~with_cloud =
  let cfg = config ~rate () in
  let tasks = tasks_of cfg in
  Sweep.map_list
    (fun name ->
      let sim = simulate name tasks in
      let base =
        [ sim.Metrics.algorithm;
          string_of_int (Metrics.completed sim);
          f2 (Metrics.remaining_volume_gb sim);
          pct sim.Metrics.utilization
        ]
      in
      if not with_cloud then base
      else begin
        let cloud = Emulator.run (topo ()) (Registry.make name) tasks in
        let diff =
          let a = Metrics.completed_fraction sim and b = Metrics.completed_fraction cloud in
          Float.abs (a -. b)
        in
        base
        @ [ string_of_int (Metrics.completed cloud);
            f2 (Metrics.remaining_volume_gb cloud);
            pct cloud.Metrics.utilization;
            pct diff
          ]
      end)
    [ "fifo"; "edf"; "disfifo"; "disedf"; "lstf"; "lpall"; "lpst" ]

let fig2 () =
  let n = num_tasks () in
  heading
    (Printf.sprintf
       "Fig. 2: %d tasks, (9,6), 64MB chunks, deadline 10xLRT — Table 3 baseline (rate 0.1/s), \
        simulation vs emulated cloud" n);
  print_table
    ~align:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right ]
    ~header:
      [ "algorithm"; "sim done"; "sim remGB"; "sim util"; "cloud done"; "cloud remGB";
        "cloud util"; "|sim-cloud|" ]
    (fig2_rows ~rate:0.1 ~with_cloud:true);
  print_endline "paper: sim and real-cloud results agree within 2.2%";
  heading
    (Printf.sprintf
       "Fig. 2 (pressured, rate 1.4/s): the regime where the paper's ordering \
        LPST > LPAll > Dis* > FIFO > EDF separates (see EXPERIMENTS.md)");
  print_table ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "algorithm"; "completed"; "remaining(GB)"; "utilization" ]
    (fig2_rows ~rate:1.4 ~with_cloud:false)

(* ------------------------------------------------------------------ *)
(* Fig. 3a: contribution of each LPST phase.                           *)

let fig3a () =
  heading "Fig. 3a: per-phase contribution (LPST-Pi keeps only phase i), rate 1.6/s";
  let tasks = tasks_of (config ~rate:1.6 ()) in
  let full = simulate "lpst" tasks in
  let rows =
    Sweep.map_list
      (fun name ->
        let run = simulate name tasks in
        let delta =
          let a = float_of_int (Metrics.completed full) in
          if a <= 0. then 0. else (a -. float_of_int (Metrics.completed run)) /. a
        in
        [ run.Metrics.algorithm;
          string_of_int (Metrics.completed run);
          f2 (Metrics.remaining_volume_gb run);
          pct delta
        ])
      [ "lpst"; "lpst-p1"; "lpst-p2"; "lpst-p3" ]
  in
  print_table ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "algorithm"; "completed"; "remaining(GB)"; "loss vs LPST" ]
    rows;
  print_endline "paper: LPST-P1 -38.6%, LPST-P2 -17.4%, LPST-P3 -12.9%"

(* ------------------------------------------------------------------ *)
(* Fig. 3b: influence of time-varying foreground traffic.              *)

let fig3b () =
  heading "Fig. 3b: foreground traffic occupying U[0,max] of each link, rate 1.2/s";
  let tasks = tasks_of (config ~rate:1.2 ()) in
  let names = [ "fifo"; "disfifo"; "disedf"; "lpall"; "lpst" ] in
  let rows =
    Sweep.map_list
      (fun max_frac ->
        let engine_config =
          { Engine.foreground = Foreground.uniform ~max_frac; seed = 5 }
        in
        Printf.sprintf "%.0f%%" (100. *. max_frac /. 2.)
        :: List.map
             (fun name ->
               string_of_int (Metrics.completed (simulate ~config:engine_config name tasks)))
             names)
      [ 0.; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ]
  in
  print_table
    ~align:(Table.Left :: List.map (fun _ -> Table.Right) names)
    ~header:("mean fg" :: List.map (fun n -> (Registry.make n).S3_core.Algorithm.name) names)
    rows;
  print_endline "paper: all algorithms degrade with foreground load; LPST's lead over LPAll widens"

(* ------------------------------------------------------------------ *)
(* Fig. 3c: mixing (9,6) and (14,10) erasure codes.                    *)

let fig3c () =
  heading "Fig. 3c: task mix of (9,6) [Google] and (14,10) [Facebook] codes, rate 1.2/s";
  let names = [ "disfifo"; "disedf"; "lpall"; "lpst" ] in
  let rows =
    Sweep.map_list
      (fun frac96 ->
        let mix = [ ((9, 6), frac96); ((14, 10), 1. -. frac96) ] in
        let tasks = tasks_of (config ~rate:1.2 ~mix ()) in
        Printf.sprintf "%.0f/%.0f" (100. *. frac96) (100. *. (1. -. frac96))
        :: List.map (fun name -> string_of_int (Metrics.completed (simulate name tasks))) names)
      [ 0.9; 0.7; 0.5; 0.3; 0.1 ]
  in
  print_table
    ~align:(Table.Left :: List.map (fun _ -> Table.Right) names)
    ~header:("(9,6)/(14,10)" :: List.map (fun n -> (Registry.make n).S3_core.Algorithm.name) names)
    rows;
  print_endline "paper: more (14,10) helps slightly (extra source-selection flexibility)"

(* ------------------------------------------------------------------ *)
(* Fig. 3d: chunk-size sensitivity.                                    *)

let fig3d () =
  heading
    "Fig. 3d: chunk size 64..2048 MB at constant offered load (rate scaled as 64/size x 1.2/s)";
  let names = [ "fifo"; "disfifo"; "disedf"; "lpall"; "lpst" ] in
  let base_tasks = max 100 (num_tasks () / 2) in
  let rows =
    Sweep.map_list
      (fun chunk ->
        let rate = 1.2 *. 64. /. chunk in
        let tasks = tasks_of (config ~rate ~chunk ~tasks:base_tasks ()) in
        Printf.sprintf "%.0fMB" chunk
        :: List.map
             (fun name ->
               let run = simulate name tasks in
               pct (Metrics.completed_fraction run))
             names)
      [ 64.; 128.; 256.; 512.; 1024.; 2048. ]
  in
  print_table
    ~align:(Table.Left :: List.map (fun _ -> Table.Right) names)
    ~header:("chunk" :: List.map (fun n -> (Registry.make n).S3_core.Algorithm.name) names)
    rows;
  print_endline "paper: chunk size leaves the relative ordering of the algorithms unchanged"

(* ------------------------------------------------------------------ *)
(* Fig. 3e: arrival-rate sensitivity.                                  *)

let fig3e () =
  heading "Fig. 3e: arrival rate 1/30 .. 2 tasks/s — completed tasks and link utilization";
  let names = [ "fifo"; "disfifo"; "lpall"; "lpst" ] in
  let rows =
    Sweep.map_list
      (fun rate ->
        let tasks = tasks_of (config ~rate ()) in
        Printf.sprintf "%.3f" rate
        :: List.concat_map
             (fun name ->
               let run = simulate name tasks in
               [ string_of_int (Metrics.completed run); pct run.Metrics.utilization ])
             names)
      [ 1. /. 30.; 0.1; 0.25; 0.5; 1.0; 2.0 ]
  in
  print_table
    ~align:(Table.Left :: List.concat_map (fun _ -> [ Table.Right; Table.Right ]) names)
    ~header:
      ("rate/s"
      :: List.concat_map
           (fun n ->
             let nm = (Registry.make n).S3_core.Algorithm.name in
             [ nm; nm ^ " util" ])
           names)
    rows;
  print_endline
    "paper: sparse arrivals equalize the algorithms; at rate 2/s LPST completes ~89% more \
     than LPAll and ~10x FIFO, while utilization rises for everyone"

(* ------------------------------------------------------------------ *)
(* Fig. 3f: deadline-factor sensitivity.                               *)

let fig3f () =
  heading "Fig. 3f: deadline = factor x LRT, factor 2..10, rate 1.0/s";
  let names = [ "edf"; "disedf"; "lpall"; "lpst" ] in
  let rows =
    Sweep.map_list
      (fun factor ->
        Printf.sprintf "%.0f" factor
        :: List.concat_map
             (fun name ->
               let tasks = tasks_of (config ~rate:1.0 ~factor ()) in
               let run = simulate name tasks in
               [ string_of_int (Metrics.completed run); f2 (Metrics.remaining_volume_gb run) ])
             names)
      [ 2.; 4.; 6.; 8.; 10. ]
  in
  print_table
    ~align:(Table.Left :: List.concat_map (fun _ -> [ Table.Right; Table.Right ]) names)
    ~header:
      ("factor"
      :: List.concat_map
           (fun n ->
             let nm = (Registry.make n).S3_core.Algorithm.name in
             [ nm; nm ^ " remGB" ])
           names)
    rows;
  print_endline
    "paper: looser deadlines complete more and strand less; LPST leads most at tight \
     deadlines; LPAll strands little volume yet completes fewer (no prioritization)"

(* ------------------------------------------------------------------ *)
(* Fig. 4: Google-trace-driven CDF of normalized completion time.      *)

let fig4 () =
  let n = trace_tasks () in
  heading
    (Printf.sprintf
       "Fig. 4: CDF of completion time / deadline on Google-trace arrivals (%d single-source \
        tasks, 30 machines)" n);
  let g = Prng.create 23 in
  let records = Trace.synthetic g ~machines:30 ~tasks:n in
  let tasks =
    Trace.to_tasks g (topo ()) records ~chunk_size_mb:64. ~deadline_factor:10.
  in
  let thresholds = [ 0.2; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
  let names = [ "fifo"; "edf"; "disfifo"; "disedf"; "lpall"; "lpst" ] in
  let rows =
    Sweep.map_list
      (fun name ->
        let run = simulate name tasks in
        let times = Metrics.normalized_completion_times run in
        let frac x =
          let hits = List.length (List.filter (fun t -> t <= x +. 1e-9) times) in
          float_of_int hits /. float_of_int (List.length run.Metrics.outcomes)
        in
        run.Metrics.algorithm :: List.map (fun x -> pct (frac x)) thresholds)
      names
  in
  print_table
    ~align:(Table.Left :: List.map (fun _ -> Table.Right) thresholds)
    ~header:("algorithm" :: List.map (fun x -> Printf.sprintf "<=%.1fx" x) thresholds)
    rows;
  print_endline
    "paper: LPST completes ~95% (mostly between 0.5x and 0.8x of deadline), LPAll ~70%, \
     Dis* 30-40%, FIFO/EDF ~5%"

(* ------------------------------------------------------------------ *)
(* Fig. 5: scheduling-plan computation time vs number of tasks.        *)

(* Build a standing scene with [m] active tasks and return the
   algorithm's allocate closure over it — the "generate a scheduling
   plan" operation the paper times. *)
let plan_computation ~m name =
  let topo = topo () in
  let g = Prng.create (97 + m) in
  let cfg = config ~tasks:m ~rate:1000. () in
  (* rate 1000/s: all m tasks arrive in a burst and are simultaneously
     active, the worst case the paper's Fig. 5 measures. *)
  let tasks = Generator.generate g topo cfg in
  let alg = Registry.make name in
  let flows =
    List.concat_map
      (fun (t : Task.t) ->
        let sources = Array.sub t.Task.sources 0 t.Task.k in
        Array.to_list
          (Array.mapi
             (fun i source ->
               { S3_core.Problem.flow_id = (t.Task.id * 16) + i;
                 task = t;
                 source;
                 remaining = t.Task.volume
               })
             sources))
      tasks
  in
  let view =
    { S3_core.Problem.now = List.fold_left (fun acc (t : Task.t) -> max acc t.Task.arrival) 0. tasks;
      topo;
      flows = lazy flows;
      available = (fun e -> (Topology.entity topo e).Topology.capacity);
      load = None
    }
  in
  fun () -> ignore (alg.S3_core.Algorithm.allocate view)

(* Full engine run over the same burst scene: end-to-end planning cost
   (plan_time / plan_calls in the metrics) for the bench-regression
   harness, complementing the single-call kernel above. *)
let plan_scene_run ~m name =
  let topo = topo () in
  let g = Prng.create (97 + m) in
  let cfg = config ~tasks:m ~rate:1000. () in
  let tasks = Generator.generate g topo cfg in
  Engine.run topo (Registry.make name) tasks

(* The same burst scene under a mid-run degradation storm (five server
   NICs cut to 5% for 60 s), run with or without the deadline watchdog.
   The watchdog=false runs bound the supervision layer's cost when it
   is off; the watchdog=true runs track the cost and yield of hedged
   swaps under overload. *)
let storm_scene_run ?watchdog ~m name =
  let topo = topo () in
  let g = Prng.create (97 + m) in
  let cfg = config ~tasks:m ~rate:1000. () in
  let tasks = Generator.generate g topo cfg in
  let faults =
    Fault.plan
      (List.map
         (fun s ->
           { Fault.time = 30.;
             kind =
               Fault.Link_degrade
                 { entity = Topology.server_entity topo s; factor = 0.05; duration = 60. }
           })
         [ 10; 11; 12; 13; 14 ])
  in
  Engine.run ~faults ?watchdog topo (Registry.make name) tasks

(* The same burst scene under a crash storm (five servers die at
   t = 30), swept over failure-detector latencies. Detection off (or
   latency 0) reproduces the omniscient engine; larger latencies
   quantify how much completed work late detection costs, and the
   resume-enabled retry policy bounds how much of the stranded partial
   progress survives the re-homes. *)
let detect_storm_scene_run ?detector ?retry ~m name =
  let topo = topo () in
  let g = Prng.create (97 + m) in
  let cfg = config ~tasks:m ~rate:1000. () in
  let tasks = Generator.generate g topo cfg in
  let faults =
    Fault.plan
      (List.map
         (fun s -> { Fault.time = 30.; kind = Fault.Server_crash s })
         [ 10; 11; 12; 13; 14 ])
  in
  Engine.run ~faults ?detector ?retry topo (Registry.make name) tasks

(* ------------------------------------------------------------------ *)
(* Scale scenes: the O(affected) engine on a datacenter-sized fabric.  *)

(* 52 leaves x 20 servers/leaf = 1040 servers. Repair traffic is kept
   rack-local (the common case: re-protecting within the failure
   domain), so every route is [src NIC; leaf switch; dst NIC] and the
   planning LP decomposes into one independent block per leaf — the
   structure the LP's block split exploits. The Generator's placement
   policies deliberately spread sources across racks, so these tasks
   are built by hand. *)
let scale_leaves = 52
let scale_per_leaf = 20

let scale_topo () =
  Topology.leaf_spine ~leaves:scale_leaves ~spines:4 ~servers_per_leaf:scale_per_leaf
    ~cst:1000. ~cta:20000.

(* [m] tasks round-robin over leaves, all arriving at t = 0 — one
   arrival batch, the burst worst case fig5 measures. A common
   deadline bounds the run: the schedulable slice completes (symmetric
   flows batch their completion events), the rest expires in one final
   batch, so the scene stays runnable at m = 10000 while still
   triggering hundreds of replans. *)
let scale_tasks ~m =
  let volume = 1000. (* Mb per chunk fetch *) and deadline = 12. in
  List.init m (fun i ->
      let leaf = i mod scale_leaves in
      let base = leaf * scale_per_leaf in
      let slot = i / scale_leaves in
      let dst = base + (slot mod scale_per_leaf) in
      let sources =
        Array.init 6 (fun j -> base + ((slot + 1 + j) mod scale_per_leaf))
      in
      Task.v ~id:i ~arrival:0. ~deadline ~volume ~k:4 ~sources ~destination:dst ())

let scale_scene_run ~m alg = Engine.run (scale_topo ()) alg (scale_tasks ~m)

(* Spawn-pressure variant: the same hand-built leaf-local workload in
   20 arrival waves of m/20 tasks, so the engine performs thousands of
   per-task spawns while tens of thousands of flows are already
   active. Phase-I source selection at each spawn builds a
   {!S3_core.Problem.view}; before [view.flows] became lazy every one
   of those constructions walked the full active-flow list, which
   dominated this scene at m = 10000. The per-event wall time here is
   the regression gate for that index. *)
let scale_spawn_tasks ~m =
  (* Chunks are kept small so each wave drains before the next few
     land: the scene stresses spawn frequency (m spawns against a
     steadily busy fabric), not planning under terminal overload. *)
  let volume = 200. (* Mb *) and deadline = 30. in
  let wave = max 1 (m / 20) in
  List.init m (fun i ->
      let leaf = i mod scale_leaves in
      let base = leaf * scale_per_leaf in
      let slot = i / scale_leaves in
      let dst = base + (slot mod scale_per_leaf) in
      let sources = Array.init 6 (fun j -> base + ((slot + 1 + j) mod scale_per_leaf)) in
      Task.v ~id:i
        ~arrival:(float_of_int (i / wave))
        ~deadline ~volume ~k:4 ~sources ~destination:dst ())

let scale_spawn_scene_run ~m name =
  let topo = scale_topo () in
  Engine.run topo (Registry.make name) (scale_spawn_tasks ~m)

let fig5_sizes = [ 10; 25; 50; 100; 200; 400 ]

let fig5_quick () =
  heading "Fig. 5: time to generate one scheduling plan vs number of simultaneous tasks";
  let time_one f =
    let t0 = Sys.time () in
    let reps = ref 0 in
    while Sys.time () -. t0 < 0.2 do
      f ();
      incr reps
    done;
    (Sys.time () -. t0) /. float_of_int !reps
  in
  let rows =
    List.map
      (fun m ->
        let lpst = time_one (plan_computation ~m "lpst") in
        let lpall = time_one (plan_computation ~m "lpall") in
        [ string_of_int m;
          Printf.sprintf "%.3f" (lpst *. 1000.);
          Printf.sprintf "%.3f" (lpall *. 1000.)
        ])
      fig5_sizes
  in
  print_table ~align:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ "tasks"; "LPST (ms)"; "LPAll (ms)" ]
    rows;
  print_endline
    "paper: LPST's plan time stays roughly flat (it admits only the most urgent tasks); \
     LPAll's grows dramatically with the task count"

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's figures: ablations of our own design
   choices (DESIGN.md 4) and the future-work topologies (6).          *)

let run_with alg tasks = Engine.run (topo ()) alg tasks

let ablation_sticky () =
  heading "Ablation: sticky vs stateless Phase II admission (burst of simultaneous repairs)";
  (* A storm: equal-deadline tasks arrive in one burst, more than fit.
     Under stateless re-triage a task that has made progress has MORE
     flexibility than an unstarted one, so every event hands its slot
     to a fresh task and both end up missing; sticky admission honours
     the paper's "admitted tasks are guaranteed to meet their
     deadlines". *)
  let tasks =
    tasks_of (config ~rate:200. ~tasks:(max 100 (num_tasks () / 2)) ~factor:8. ~jitter:0. ())
  in
  let rows =
    List.map
      (fun (label, sticky) ->
        let alg = S3_core.Lpst.lpst ~sticky ~name:label () in
        let run = run_with alg tasks in
        [ label;
          string_of_int (Metrics.completed run);
          f2 (Metrics.remaining_volume_gb run);
          pct run.Metrics.utilization
        ])
      [ ("LPST (sticky admission)", true); ("LPST (stateless admission)", false) ]
  in
  print_table ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "variant"; "completed"; "remaining(GB)"; "utilization" ]
    rows

let ablation_sources () =
  heading "Ablation: source-selection policy inside LPST, rate 1.4/s";
  let tasks = tasks_of (config ~rate:1.4 ~tasks:(max 100 (num_tasks () / 2)) ()) in
  let rows =
    List.map
      (fun (label, sources) ->
        let alg = S3_core.Lpst.lpst ~sources ~name:label () in
        let run = run_with alg tasks in
        [ label; string_of_int (Metrics.completed run); pct run.Metrics.utilization ])
      [ ("least congested (Phase I)", S3_core.Algorithm.Least_congested);
        ("random", S3_core.Algorithm.Random_sources 5);
        ("shortest path", S3_core.Algorithm.Shortest_path)
      ]
  in
  print_table ~align:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ "policy"; "completed"; "utilization" ]
    rows

let heterogeneous () =
  heading
    "Extension: heterogeneous task kinds (urgent repairs / rebalance moves / lax backups)";
  (* With mixed deadline factors, deadline order finally differs from
     arrival order, exposing the EDF-vs-FIFO gap the paper reports
     ("wide spanning task deadline settings"). *)
  let tasks =
    Generator.generate_mixed (Prng.create workload_seed) (topo ())
      ~num_tasks:(num_tasks ()) ~arrival_rate:1.0 ~chunk_size_mb:64. ()
  in
  let per_kind run kind =
    List.length
      (List.filter
         (fun (o : Metrics.outcome) ->
           o.Metrics.completed && o.Metrics.task.Task.kind = kind)
         run.Metrics.outcomes)
  in
  let rows =
    List.map
      (fun name ->
        let run = simulate name tasks in
        [ run.Metrics.algorithm;
          string_of_int (Metrics.completed run);
          string_of_int (per_kind run Task.Repair);
          string_of_int (per_kind run Task.Rebalance);
          string_of_int (per_kind run Task.Backup)
        ])
      [ "fifo"; "edf"; "disfifo"; "disedf"; "lstf"; "lpall"; "lpst" ]
  in
  print_table
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "algorithm"; "completed"; "repairs"; "moves"; "backups" ]
    rows

let regenerating () =
  heading
    "Extension: regenerating-code repair degrees (3.2) — scheduler unchanged, repair \
     volume from the (n,k,d) cut-set bound";
  (* A (9,6) stripe of 64 MB chunks; repairs contact d helpers, each
     shipping beta. d = 6 at the MSR point is classic MDS repair. *)
  let module R = S3_storage.Regenerating in
  let object_mb = 6. *. 64. in
  let rows =
    List.map
      (fun (d, point, label) ->
        let p = R.make ~n:9 ~k:6 ~d point in
        let beta_mb = R.helper_traffic p ~object_size:object_mb in
        let cfg =
          config ~rate:1.6 ~tasks:(max 100 (num_tasks () / 2)) ~chunk:beta_mb
            ~mix:[ ((9, d), 1.) ] ()
        in
        let tasks = tasks_of cfg in
        let run = simulate "lpst" tasks in
        [ label;
          string_of_int d;
          f2 (R.repair_traffic p ~object_size:object_mb *. 8. /. 1000.);
          pct (R.repair_savings p);
          string_of_int (Metrics.completed run);
          pct run.Metrics.utilization
        ])
      [ (6, R.Msr, "MDS baseline (d=k)");
        (7, R.Msr, "MSR d=7");
        (8, R.Msr, "MSR d=8");
        (8, R.Mbr, "MBR d=8")
      ]
  in
  print_table
    ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:[ "code point"; "helpers d"; "repair Gb/task"; "traffic saved"; "LPST done"; "util" ]
    rows;
  print_endline
    "higher repair degree moves less data per repair, so the same network completes more \
     deadline repairs — the paper's claim that LPST applies to regenerating codes as (n,d)"

let topologies () =
  heading "Extension: LPST on the paper's future-work topologies (same scheduler, no changes)";
  let cases =
    [ Topology.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500.;
      Topology.fat_tree ~k:4 ~cst:500. ~cta:1500.;
      Topology.leaf_spine ~leaves:3 ~spines:2 ~servers_per_leaf:10 ~cst:500. ~cta:1500.;
      Topology.bcube ~ports:4 ~levels:2 ~cst:500. ~cta:1500.
    ]
  in
  let names = [ "disfifo"; "lpall"; "lpst" ] in
  let rows =
    List.map
      (fun t ->
        let cfg =
          { (config ~rate:1.0 ~tasks:(max 100 (num_tasks () / 2)) ()) with
            Generator.placement = S3_storage.Placement.Flat_uniform
          }
        in
        let tasks = Generator.generate (Prng.create workload_seed) t cfg in
        Topology.name t
        :: List.map
             (fun name ->
               let run = Engine.run t (Registry.make name) tasks in
               string_of_int (Metrics.completed run))
             names)
      cases
  in
  print_table
    ~align:(Table.Left :: List.map (fun _ -> Table.Right) names)
    ~header:("topology" :: List.map (fun n -> (Registry.make n).S3_core.Algorithm.name) names)
    rows

(* ------------------------------------------------------------------ *)
(* Parallel-sweep scenario replications: one fully self-contained
   simulation per index — topology, PRNG (seeded from the index alone)
   and algorithm instances are all built inside the job, the shape
   {!S3_par.Sweep} needs for a deterministic parallel run. Used by the
   bench regression mode's parallel-vs-sequential wall-clock pair and
   by the determinism test suite. *)

let sweep_scenario idx =
  let t = topo () in
  let g = Prng.create (workload_seed + (31 * (idx + 1))) in
  let cfg = config ~rate:1.2 ~tasks:(max 60 (num_tasks () / 8)) () in
  let tasks = Generator.generate g t cfg in
  Engine.run t (Registry.make "lpst") tasks

let sweep_fingerprints ~domains n =
  Array.map Report.fingerprint (Sweep.map ~domains n sweep_scenario)

(* ------------------------------------------------------------------ *)

let all_ids =
  [ "table2"; "fig2"; "fig3a"; "fig3b"; "fig3c"; "fig3d"; "fig3e"; "fig3f"; "fig4"; "fig5";
    "ablation-sticky"; "ablation-sources"; "heterogeneous"; "regenerating"; "topologies" ]

let run_experiment = function
  | "table2" -> table2 ()
  | "fig2" -> fig2 ()
  | "fig3a" -> fig3a ()
  | "fig3b" -> fig3b ()
  | "fig3c" -> fig3c ()
  | "fig3d" -> fig3d ()
  | "fig3e" -> fig3e ()
  | "fig3f" -> fig3f ()
  | "fig4" -> fig4 ()
  | "fig5" -> fig5_quick ()
  | "ablation-sticky" -> ablation_sticky ()
  | "ablation-sources" -> ablation_sources ()
  | "heterogeneous" -> heterogeneous ()
  | "regenerating" -> regenerating ()
  | "topologies" -> topologies ()
  | other -> invalid_arg (Printf.sprintf "unknown experiment %S" other)
