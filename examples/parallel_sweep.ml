(* Parallel evaluation sweep: scenario replications across CPU cores.

   Each replication is fully self-contained — it builds its own
   topology and algorithm instances and seeds its PRNG from the
   replication index — so the sweep can fan out over domains
   (S3_par.Sweep) while producing byte-identical results to a
   sequential run. We replicate a pressured Fig. 2-style comparison
   over independent workloads and report the across-replication spread
   that a single run hides.

   Run with: dune exec examples/parallel_sweep.exe
   Set S3_DOMAINS to control parallelism (default: all cores). *)

module Topology = S3_net.Topology
module Generator = S3_workload.Generator
module Registry = S3_core.Registry
module Engine = S3_sim.Engine
module Metrics = S3_sim.Metrics
module Report = S3_sim.Report
module Sweep = S3_par.Sweep
module Prng = S3_util.Prng
module Stats = S3_util.Stats
module Table = S3_util.Table

let algorithms = [ "fifo"; "disedf"; "lpall"; "lpst" ]

let replications = 8

(* One replication: an independent 150-task workload at rate 1.2/s on
   a fresh 3x10 cluster, every algorithm run on the same tasks; the
   runs come back in [algorithms] order. *)
let replicate idx =
  let topo () = Topology.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let cfg =
    { Generator.num_tasks = 150;
      arrival_rate = 1.2;
      chunk_size_mb = 64.;
      code_mix = [ ((9, 6), 1.) ];
      deadline_factor = 10.;
      deadline_jitter = 0.5;
      placement = S3_storage.Placement.Rack_aware
    }
  in
  let tasks = Generator.generate (Prng.create (1000 + (17 * idx))) (topo ()) cfg in
  Array.of_list (List.map (fun name -> Engine.run (topo ()) (Registry.make name) tasks) algorithms)

let () =
  let domains = Sweep.domain_count () in
  Printf.printf "sweep: %d replications x %d algorithms on %d domain(s)\n%!" replications
    (List.length algorithms) domains;
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let runs, elapsed = timed (fun () -> Sweep.map ~domains replications replicate) in
  Printf.printf "parallel sweep finished in %.2fs\n" elapsed;

  (* Aggregate per algorithm across replications. *)
  let rows =
    List.mapi
      (fun ai name ->
        let samples =
          Array.to_list
            (Array.map
               (fun runs_of_rep ->
                 Metrics.completed_fraction runs_of_rep.(ai))
               runs)
        in
        let pct v = 100. *. v in
        [ (Registry.make name).S3_core.Algorithm.name;
          Printf.sprintf "%.1f%%" (pct (Stats.mean samples));
          Printf.sprintf "%.1f%%" (pct (Stats.minimum samples));
          Printf.sprintf "%.1f%%" (pct (Stats.maximum samples));
          Printf.sprintf "%.1f" (pct (Stats.stddev samples))
        ])
      algorithms
  in
  print_endline
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
       ~header:[ "algorithm"; "mean done"; "min"; "max"; "stddev(pp)" ]
       rows);

  (* Determinism check: a 1-domain rerun fingerprints identically. *)
  let fp = Array.map (Array.map Report.fingerprint) in
  let seq, _ = timed (fun () -> Sweep.map ~domains:1 replications replicate) in
  Printf.printf "deterministic vs sequential rerun: %b\n" (fp runs = fp seq)
