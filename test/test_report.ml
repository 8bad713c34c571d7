(* Validate, Report and the mixed-kind generator. *)

module Problem = S3_core.Problem
module Report = S3_sim.Report
module Engine = S3_sim.Engine
module Metrics = S3_sim.Metrics
module Registry = S3_core.Registry
module Generator = S3_workload.Generator
module Task = S3_workload.Task
module Prng = S3_util.Prng
open Helpers

let tc = Alcotest.test_case

(* ---- Validate ---- *)

let test_validate_clean () =
  let t = task ~sources:[| 1 |] ~destination:0 () in
  let v = view [ flow t ] in
  Alcotest.(check bool) "full-rate ok" true (Validate.ok v [ (0, 1000.) ]);
  Alcotest.(check bool) "idle ok" true (Validate.ok v [])

let test_validate_over_capacity () =
  let t = task ~sources:[| 1 |] ~destination:0 () in
  let v = view [ flow t ] in
  (* 1200 Mb/s overloads both NICs on the intra-rack route. *)
  match Validate.check v [ (0, 1200.) ] with
  | [ Validate.Over_capacity a; Validate.Over_capacity b ] ->
    List.iter
      (fun (c : _) ->
        match c with
        | Validate.Over_capacity { allocated; available; _ } ->
          Alcotest.(check (float 1e-6)) "allocated" 1200. allocated;
          Alcotest.(check (float 1e-6)) "available" 1000. available
        | _ -> assert false)
      [ Validate.Over_capacity a; Validate.Over_capacity b ]
  | vs ->
    Alcotest.failf "expected two over-capacity, got %d: %a" (List.length vs)
      (Format.pp_print_list Validate.pp_violation) vs

let test_validate_floor () =
  let t = task ~sources:[| 1 |] ~destination:0 () in
  let v = view [ flow t ] in
  (match Validate.check ~floor:(fun _ -> 300.) v [ (0, 100.) ] with
   | [ Validate.Below_floor { rate; floor; _ } ] ->
     Alcotest.(check (float 1e-6)) "rate" 100. rate;
     Alcotest.(check (float 1e-6)) "floor" 300. floor
   | _ -> Alcotest.fail "expected below-floor");
  Alcotest.(check bool) "floor met" true (Validate.ok ~floor:(fun _ -> 300.) v [ (0, 300.) ])

let test_validate_negative_and_unknown () =
  let t = task ~sources:[| 1 |] ~destination:0 () in
  let v = view [ flow t ] in
  let vs = Validate.check v [ (0, -5.); (99, 10.) ] in
  Alcotest.(check bool) "negative flagged" true
    (List.exists (function Validate.Negative_rate { flow_id = 0; _ } -> true | _ -> false) vs);
  Alcotest.(check bool) "unknown flagged" true
    (List.exists (function Validate.Unknown_flow { flow_id = 99 } -> true | _ -> false) vs)

let test_validate_agrees_with_engine () =
  (* An LPST allocation validates with the LRB floor — the deadline
     guarantee as a checkable contract. *)
  let t1 = task ~id:1 ~deadline:10. ~volume:4000. ~sources:[| 1 |] ~destination:0 () in
  let t2 = task ~id:2 ~deadline:10. ~volume:4000. ~sources:[| 2 |] ~destination:0 () in
  let v = view (flows_of t1 @ flows_of t2) in
  let rates = (S3_core.Lpst.lpst ()).S3_core.Algorithm.allocate v in
  Alcotest.(check bool) "lrb floor holds" true
    (Validate.ok ~floor:(S3_core.Rtf.flow_lrb v) v rates)

(* ---- Report ---- *)

let small_runs () =
  let topo = S3_net.Topology.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let tasks =
    Generator.generate (Prng.create 5) topo
      { Generator.baseline with Generator.num_tasks = 25; arrival_rate = 1.0 }
  in
  List.map (fun n -> Engine.run topo (Registry.make n) tasks) [ "fifo"; "lpst" ]

let test_csv_of_runs () =
  let runs = small_runs () in
  let csv = Report.csv_of_runs runs in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check bool) "header" true
    (String.length (List.hd lines) > 0 && String.sub (List.hd lines) 0 9 = "algorithm");
  List.iter
    (fun line ->
      Alcotest.(check int) "22 fields" 22 (List.length (String.split_on_char ',' line)))
    lines

let test_csv_of_outcomes () =
  let runs = small_runs () in
  let csv = Report.csv_of_outcomes (List.nth runs 1) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 25 tasks" 26 (List.length lines)

let test_comparison_table () =
  let runs = small_runs () in
  let tbl = Report.comparison_table runs in
  Alcotest.(check bool) "mentions both algorithms" true
    (String.length tbl > 0
    && String.split_on_char '\n' tbl |> List.length = 4)

let test_speedup () =
  let runs = small_runs () in
  match runs with
  | [ fifo; lpst ] ->
    Alcotest.(check bool) "lpst at least as good" true (Report.speedup ~baseline:fifo lpst >= 1.)
  | _ -> Alcotest.fail "two runs"

(* ---- mixed generator ---- *)

let test_mixed_kinds () =
  let topo = S3_net.Topology.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let tasks =
    Generator.generate_mixed (Prng.create 9) topo ~num_tasks:300 ~arrival_rate:1.
      ~chunk_size_mb:64. ()
  in
  Alcotest.(check int) "count" 300 (List.length tasks);
  let by kind = List.filter (fun (t : Task.t) -> t.Task.kind = kind) tasks in
  let repairs = by Task.Repair and moves = by Task.Rebalance and backups = by Task.Backup in
  Alcotest.(check bool) "all kinds present" true
    (repairs <> [] && moves <> [] && backups <> []);
  List.iter
    (fun (t : Task.t) -> Alcotest.(check int) "moves are single-source" 1 t.Task.k)
    moves;
  List.iter
    (fun (t : Task.t) -> Alcotest.(check int) "repairs need k=6" 6 t.Task.k)
    repairs;
  (* Deadline factors really differ by kind: repairs tight, backups lax. *)
  let offset (t : Task.t) = (t.Task.deadline -. t.Task.arrival) /. Task.total_volume t in
  let mean xs = S3_util.Stats.mean (List.map offset xs) in
  Alcotest.(check bool) "backups have more slack per bit" true
    (mean backups > 3. *. mean repairs)

let test_mixed_validation () =
  let topo = S3_net.Topology.two_tier ~racks:1 ~servers_per_rack:3 ~cst:1. ~cta:1. in
  Alcotest.check_raises "small topology"
    (Invalid_argument "Generator.generate_mixed: topology too small for the code") (fun () ->
      ignore
        (Generator.generate_mixed (Prng.create 1) topo ~num_tasks:10 ~arrival_rate:1.
           ~chunk_size_mb:1. ()));
  Alcotest.check_raises "empty profiles"
    (Invalid_argument "Generator.generate_mixed: empty profile list") (fun () ->
      ignore
        (Generator.generate_mixed (Prng.create 1) topo ~num_tasks:10 ~arrival_rate:1.
           ~chunk_size_mb:1. ~profiles:[] ()))

let tests =
  ( "report",
    [ tc "validate clean" `Quick test_validate_clean;
      tc "validate over capacity" `Quick test_validate_over_capacity;
      tc "validate floor" `Quick test_validate_floor;
      tc "validate negative/unknown" `Quick test_validate_negative_and_unknown;
      tc "validate agrees with engine" `Quick test_validate_agrees_with_engine;
      tc "csv of runs" `Quick test_csv_of_runs;
      tc "csv of outcomes" `Quick test_csv_of_outcomes;
      tc "comparison table" `Quick test_comparison_table;
      tc "speedup" `Quick test_speedup;
      tc "mixed kinds" `Quick test_mixed_kinds;
      tc "mixed validation" `Quick test_mixed_validation
    ] )
