(* Benchmark harness entry point: the paper-figure regenerators and
   the Bechamel micro-benchmark suite.

   Usage:
     dune exec bench/main.exe              run every experiment + the
                                           Bechamel micro-benchmark suite
     dune exec bench/main.exe -- fig3e     run selected experiments
     dune exec bench/main.exe -- micro     run only the Bechamel suite

   See bench/experiments.ml for the per-figure regenerators and
   EXPERIMENTS.md for paper-vs-measured. End-to-end and per-layer
   performance, with pinned workloads and a pair protocol for comparing
   two commits, is s3bench's job (s3bench/README.md). *)

open Bechamel
open Toolkit

let plan_tests =
  (* One Test per evaluation artifact: the kernel each table/figure
     exercises, measured precisely. Fig. 5 is itself a timing study, so
     its indexed tests double as its data source. *)
  let scene m name = Staged.stage (Experiments.plan_computation ~m name) in
  [ Test.make ~name:"table2/lpst-example"
      (Staged.stage (fun () ->
           let topo, tasks = S3_workload.Scenarios.fig1 () in
           ignore (S3_sim.Engine.run topo (S3_core.Registry.make "lpst") tasks)));
    Test.make_indexed ~name:"fig5/lpst" ~args:Experiments.fig5_sizes (fun m -> scene m "lpst");
    Test.make_indexed ~name:"fig5/lpall" ~args:Experiments.fig5_sizes (fun m -> scene m "lpall");
    Test.make ~name:"plan/fifo" (scene 100 "fifo");
    Test.make ~name:"plan/disedf" (scene 100 "disedf");
    Test.make ~name:"plan/lpst" (scene 100 "lpst");
    Test.make ~name:"plan/lpall" (scene 100 "lpall")
  ]

let micro_tests =
  let lp_problem n =
    (* A packing LP shaped like Phase III: n flows, n/3 entities. *)
    let g = S3_util.Prng.create (n + 3) in
    let constrs =
      List.init (max 1 (n / 3)) (fun _ ->
          let coeffs =
            List.filteri (fun _ _ -> S3_util.Prng.bool g) (List.init n (fun j -> (j, 1.)))
          in
          { S3_lp.Lp.coeffs = (if coeffs = [] then [ (0, 1.) ] else coeffs); bound = 500. })
    in
    S3_lp.Lp.make ~nvars:n ~objective:(Array.make n 1.) ~lower:(Array.make n 0.) constrs
  in
  let p60 = lp_problem 60 in
  (* [m] leaf-local repairs of 4 flows on a 1040-server leaf-spine (52
     leaves of 20 servers), as s3bench's leaf-spine scenes deal them:
     round-robin over the leaves, each with its first 4 of 6 candidates
     as sources, every route inside its leaf. *)
  let leaf_view =
    let leaves = 52 and per_leaf = 20 in
    let topo =
      S3_net.Topology.leaf_spine ~leaves ~spines:4 ~servers_per_leaf:per_leaf ~cst:1000.
        ~cta:20000.
    in
    fun ~m ~volume ~deadline ->
      let flows =
        List.concat
          (List.init m (fun i ->
               let base = i mod leaves * per_leaf and slot = i / leaves in
               let sources = Array.init 6 (fun j -> base + ((slot + 1 + j) mod per_leaf)) in
               let task =
                 S3_workload.Task.v ~id:i ~arrival:0. ~deadline ~volume ~k:4 ~sources
                   ~destination:(base + (slot mod per_leaf)) ()
               in
               List.init 4 (fun j ->
                   { S3_core.Problem.flow_id = (4 * i) + j;
                     task;
                     source = sources.(j);
                     remaining = volume
                   })))
      in
      ( { S3_core.Problem.now = 0.;
          topo;
          flows = lazy flows;
          available = (fun e -> (S3_net.Topology.entity topo e).S3_net.Topology.capacity);
          load = None
        },
        flows )
  in
  (* Phase III alone, cold, on one arrival wave of s3bench's
     leafspine-waves scene: 150 small repairs, so the LP splits into
     one block per leaf. *)
  let wave_view, wave_flows = leaf_view ~m:150 ~volume:200. ~deadline:30. in
  (* One fresh LPST plan at the first event of s3bench's
     leafspine-burst scene: 10,000 repairs of 1000 Mb due in 12 s.
     Phase II ranks all of them and admits the 1,248 whose LRBs fit. *)
  let burst_view, _ = leaf_view ~m:10_000 ~volume:1000. ~deadline:12. in
  (* The supervision passes inside one engine run: 40 (9,6) repairs on
     a 30-server two-tier fabric with a crash that the detector confirms
     two seconds late, two overlapping degradations on one NIC that
     stall fetches into retries and re-homes, and the watchdog's swaps
     and sheds on top. *)
  let storm_topo = S3_net.Topology.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let storm_tasks =
    S3_workload.Generator.generate (S3_util.Prng.create 3) storm_topo
      { S3_workload.Generator.num_tasks = 40;
        arrival_rate = 1.5;
        chunk_size_mb = 64.;
        code_mix = [ ((9, 6), 1.) ];
        deadline_factor = 5.;
        deadline_jitter = 0.2;
        placement = S3_storage.Placement.Rack_aware
      }
  in
  let storm_faults =
    let nic = S3_net.Topology.server_entity storm_topo 1 in
    let degrade time factor duration =
      { S3_fault.Fault.time; kind = S3_fault.Fault.Link_degrade { entity = nic; factor; duration } }
    in
    S3_fault.Fault.plan
      [ { S3_fault.Fault.time = 8.; kind = S3_fault.Fault.Server_crash 7 };
        degrade 2. 0.05 40.;
        degrade 4. 0.5 10.
      ]
  in
  let storm_detector = S3_fault.Detector.v ~suspect:1. () in
  let rs = S3_storage.Reed_solomon.make ~n:9 ~k:6 in
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let shards = S3_storage.Reed_solomon.encode rs data in
  let six =
    List.filteri
      (fun i _ -> i <> 2 && i <> 4 && i <> 7)
      (Array.to_list (Array.mapi (fun i s -> (i, s)) shards))
  in
  [ Test.make ~name:"lp/simplex-60" (Staged.stage (fun () -> ignore (S3_lp.Lp.solve p60)));
    Test.make ~name:"lp/allocate-leafspine"
      (Staged.stage (fun () ->
           ignore
             (S3_core.Allocation.lp_allocate ~state:(S3_lp.Lp.create_state ())
                ~lower:(S3_core.Rtf.flow_lrb wave_view) wave_view wave_flows)));
    Test.make ~name:"plan/lpst-leafspine-10k"
      (Staged.stage (fun () ->
           ignore ((S3_core.Lpst.lpst ()).S3_core.Algorithm.allocate burst_view)));
    Test.make ~name:"sim/supervised-storm"
      (Staged.stage (fun () ->
           ignore
             (S3_sim.Engine.run ~faults:storm_faults ~detector:storm_detector
                ~retry:S3_sim.Retry.default ~watchdog:S3_sim.Watchdog.default storm_topo
                (S3_core.Registry.make "lpst") storm_tasks)));
    Test.make ~name:"rs/encode-9_6-4KB"
      (Staged.stage (fun () -> ignore (S3_storage.Reed_solomon.encode rs data)));
    Test.make ~name:"rs/reconstruct-9_6-4KB"
      (Staged.stage (fun () -> ignore (S3_storage.Reed_solomon.reconstruct rs ~index:2 six)))
  ]

(* Runs the Bechamel suite and prints one (kernel name, time/run) row
   per test, sorted by name. *)
let run_bechamel () =
  print_endline "\n=== Bechamel micro-benchmarks (OLS estimate, monotonic clock) ===";
  let tests = Test.make_grouped ~name:"s3" (plan_tests @ micro_tests) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let pretty ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with
          | Some [ v ] -> v
          | _ -> nan
        in
        (name, pretty ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  print_endline
    (S3_util.Table.render ~align:[ S3_util.Table.Left; S3_util.Table.Right ]
       ~header:[ "benchmark"; "time/run" ]
       (List.map (fun (name, t) -> [ name; t ]) rows))

let () =
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest in
  match args with
  | [] ->
    List.iter Experiments.run_experiment Experiments.all_ids;
    run_bechamel ()
  | ids -> List.iter (function "micro" -> run_bechamel () | id -> Experiments.run_experiment id) ids
