(* Tests for the deterministic sweeps (lib/par): result order under
   real parallelism, exception propagation, and the headline
   guarantee — a parallel sweep of engine runs fingerprints
   identically to the same sweep on one domain. *)

module Sweep = S3_par.Sweep
module Topology = S3_net.Topology
module Generator = S3_workload.Generator
module Registry = S3_core.Registry
module Engine = S3_sim.Engine
module Report = S3_sim.Report
module Prng = S3_util.Prng

let tc = Alcotest.test_case

let test_map_ordered () =
  let out = Sweep.map ~domains:4 100 (fun i -> i * i) in
  Alcotest.(check int) "length" 100 (Array.length out);
  Array.iteri (fun i v -> Alcotest.(check int) "slot" (i * i) v) out

let test_map_list_ordered () =
  let xs = List.init 37 (fun i -> 37 - i) in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * 2) xs)
    (Sweep.map_list (fun x -> x * 2) xs)

let test_map_empty_and_single () =
  Alcotest.(check int) "empty" 0 (Array.length (Sweep.map ~domains:4 0 (fun i -> i)));
  Alcotest.(check (array int)) "single job" [| 7 |] (Sweep.map ~domains:4 1 (fun _ -> 7));
  Alcotest.(check (array int)) "single domain" [| 0; 1; 2 |]
    (Sweep.map ~domains:1 3 (fun i -> i))

let test_exception_propagation () =
  (match Sweep.map ~domains:4 64 (fun i -> if i = 41 then failwith "job 41" else i) with
   | _ -> Alcotest.fail "expected the job failure to propagate"
   | exception Failure msg -> Alcotest.(check string) "first failure" "job 41" msg);
  (* On one domain the claims are sequential, so the failure stops
     every later job. *)
  let ran = Array.make 8 false in
  (match Sweep.map ~domains:1 8 (fun i -> ran.(i) <- true; if i = 2 then failwith "job 2") with
   | _ -> Alcotest.fail "expected the job failure to propagate"
   | exception Failure msg -> Alcotest.(check string) "failure" "job 2" msg);
  Alcotest.(check (array bool)) "no claim after the failure"
    (Array.init 8 (fun i -> i <= 2)) ran

(* One self-contained scenario replication, the shape every parallel
   sweep job must have: topology, PRNG seed and algorithm instance all
   derived inside the job from its index. *)
let scenario idx =
  let topo = Topology.two_tier ~racks:2 ~servers_per_rack:5 ~cst:500. ~cta:1500. in
  let cfg =
    { Generator.num_tasks = 40;
      arrival_rate = 1.2;
      chunk_size_mb = 64.;
      code_mix = [ ((4, 2), 1.) ];
      deadline_factor = 8.;
      deadline_jitter = 0.5;
      placement = S3_storage.Placement.Rack_aware
    }
  in
  let tasks = Generator.generate (Prng.create (100 + (13 * idx))) topo cfg in
  Engine.run topo (Registry.make "lpst") tasks

let test_parallel_sweep_deterministic () =
  let fp ~domains = Array.map Report.fingerprint (Sweep.map ~domains 6 scenario) in
  let seq = fp ~domains:1 in
  let par = fp ~domains:4 in
  Alcotest.(check (array string)) "byte-identical reports" seq par;
  (* And rerunning parallel is stable against itself. *)
  Alcotest.(check (array string)) "parallel rerun stable" par (fp ~domains:4)

let tests =
  ( "par",
    [ tc "map returns results in index order" `Quick test_map_ordered;
      tc "map_list preserves order" `Quick test_map_list_ordered;
      tc "empty/single batches" `Quick test_map_empty_and_single;
      tc "job exceptions propagate" `Quick test_exception_propagation;
      tc "parallel sweep is deterministic" `Slow test_parallel_sweep_deterministic
    ] )
