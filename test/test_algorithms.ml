(* Behavioural tests for every scheduling algorithm. *)

module Problem = S3_core.Problem
module Algorithm = S3_core.Algorithm
module Registry = S3_core.Registry
module Lpst = S3_core.Lpst
module Lpall = S3_core.Lpall
module Fifo = S3_core.Fifo
module Edf = S3_core.Edf
module Task = S3_workload.Task
module Rtf = S3_core.Rtf
open Helpers

let tc = Alcotest.test_case
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let test_registry_names () =
  List.iter
    (fun name ->
      let alg = Registry.make name in
      Alcotest.(check bool) "has a name" true (String.length alg.Algorithm.name > 0))
    Registry.names;
  Alcotest.check_raises "unknown" (Invalid_argument "Registry.make: unknown algorithm \"nope\"")
    (fun () -> ignore (Registry.make "nope"))

let test_registry_case_insensitive () =
  Alcotest.(check string) "LPST" "LPST" (Registry.make "LpSt").Algorithm.name

let test_fifo_head_only () =
  let t1 = task ~id:1 ~arrival:0. ~sources:[| 4 |] ~destination:0 () in
  let t2 = task ~id:2 ~arrival:1. ~sources:[| 5 |] ~destination:1 () in
  let v = view ~now:2. (flows_of t1 @ flows_of t2) in
  let rates = (Fifo.fifo ()).Algorithm.allocate v in
  Alcotest.(check bool) "earliest arrival runs" true (rate_of rates 100 > 0.);
  checkf "later waits" 0. (rate_of rates 200)

let test_dis_fifo_parallel () =
  let t1 = task ~id:1 ~arrival:0. ~sources:[| 4 |] ~destination:0 () in
  let t2 = task ~id:2 ~arrival:1. ~sources:[| 5 |] ~destination:1 () in
  let v = view ~now:2. (flows_of t1 @ flows_of t2) in
  let rates = (Fifo.dis_fifo ()).Algorithm.allocate v in
  Alcotest.(check bool) "disjoint tasks run together" true
    (rate_of rates 100 > 0. && rate_of rates 200 > 0.)

let test_edf_priority_and_preemption () =
  let lax = task ~id:1 ~arrival:0. ~deadline:100. ~sources:[| 4 |] ~destination:0 () in
  let tight = task ~id:2 ~arrival:5. ~deadline:20. ~sources:[| 5 |] ~destination:1 () in
  let alg = Edf.edf () in
  (* Before the tight task arrives, the lax one runs... *)
  let v0 = view ~now:1. (flows_of lax) in
  Alcotest.(check bool) "lax runs alone" true (rate_of (alg.Algorithm.allocate v0) 100 > 0.);
  (* ...and is preempted when a tighter deadline shows up. *)
  let v1 = view ~now:5. (flows_of lax @ flows_of tight) in
  let rates = alg.Algorithm.allocate v1 in
  checkf "lax preempted" 0. (rate_of rates 100);
  Alcotest.(check bool) "tight runs" true (rate_of rates 200 > 0.)

let test_lstf_orders_by_slack () =
  (* Deadline says task 1 first; slack (deadline minus transfer time)
     says task 2 first — the Fig. 1 insight. *)
  let t1 = task ~id:1 ~deadline:10. ~volume:1000. ~sources:[| 4 |] ~destination:0 () in
  let t2 = task ~id:2 ~deadline:11. ~volume:5000. ~sources:[| 5 |] ~destination:1 () in
  let v = view (flows_of t1 @ flows_of t2) in
  let rates = (S3_core.Lstf.lstf ()).Algorithm.allocate v in
  Alcotest.(check bool) "least slack runs" true (rate_of rates 200 > 0.);
  checkf "other waits" 0. (rate_of rates 100)

let test_lpall_theta_scaling () =
  (* Two tasks demanding 700 each on a 1000 Mb/s NIC: LPAll grants the
     same fraction of both demands instead of prioritizing. *)
  let t1 = task ~id:1 ~deadline:10. ~volume:7000. ~sources:[| 1 |] ~destination:0 () in
  let t2 = task ~id:2 ~deadline:10. ~volume:7000. ~sources:[| 2 |] ~destination:0 () in
  let v = view (flows_of t1 @ flows_of t2) in
  let rates = (Lpall.lpall ()).Algorithm.allocate v in
  let r1 = rate_of rates 100 and r2 = rate_of rates 200 in
  Alcotest.(check bool) "both get a share" true (r1 > 0. && r2 > 0.);
  checkf "link saturated" 1000. (r1 +. r2);
  Alcotest.(check bool) "neither meets LRB" true (r1 < 700. && r2 < 700.);
  Alcotest.(check bool) "even degradation" true (Float.abs (r1 -. r2) < 1.)

let test_lpall_feasible_demands_met () =
  let t1 = task ~id:1 ~deadline:10. ~volume:3000. ~sources:[| 1 |] ~destination:0 () in
  let t2 = task ~id:2 ~deadline:10. ~volume:3000. ~sources:[| 2 |] ~destination:0 () in
  let v = view (flows_of t1 @ flows_of t2) in
  let rates = (Lpall.lpall ()).Algorithm.allocate v in
  List.iter
    (fun fid ->
      Alcotest.(check bool) "at least LRB" true (rate_of rates fid >= 300. -. 1e-6))
    [ 100; 200 ]

let test_lpst_admits_urgent_first () =
  (* Three tasks wanting the same NIC; only two fit at LRB. The one
     with the most flexibility must be the one left waiting. *)
  let t1 = task ~id:1 ~deadline:10. ~volume:4000. ~sources:[| 1 |] ~destination:0 () in
  let t2 = task ~id:2 ~deadline:10. ~volume:4500. ~sources:[| 2 |] ~destination:0 () in
  let t3 = task ~id:3 ~deadline:100. ~volume:20000. ~sources:[| 4 |] ~destination:0 () in
  let v = view (flows_of t1 @ flows_of t2 @ flows_of t3) in
  let admitted = Lpst.admit v in
  let ids = List.map (fun ((t : Task.t), _) -> t.Task.id) admitted in
  Alcotest.(check (list int)) "urgent pair admitted, flexible waits" [ 2; 1 ] ids

let test_lpst_admission_respects_capacity () =
  let mk id = task ~id ~deadline:10. ~volume:6000. ~sources:[| id |] ~destination:0 () in
  let tasks = List.map mk [ 1; 2; 4 ] in
  let v = view (List.concat_map flows_of tasks) in
  let admitted = Lpst.admit v in
  let total_lrb =
    List.concat_map snd admitted |> List.fold_left (fun acc f -> acc +. Rtf.flow_lrb v f) 0.
  in
  Alcotest.(check bool) "sum of LRBs fits the NIC" true (total_lrb <= 1000. +. 1e-6);
  Alcotest.(check int) "exactly one fits (600 each)" 1 (List.length admitted)

let test_lpst_allocate_guarantees () =
  let t1 = task ~id:1 ~deadline:10. ~volume:4000. ~sources:[| 1 |] ~destination:0 () in
  let t2 = task ~id:2 ~deadline:10. ~volume:4000. ~sources:[| 2 |] ~destination:0 () in
  let v = view (flows_of t1 @ flows_of t2) in
  let alg = Lpst.lpst () in
  let rates = alg.Algorithm.allocate v in
  Alcotest.(check bool) "capacities" true (respects_capacities v rates);
  List.iter
    (fun f ->
      Alcotest.(check bool) "at least LRB" true
        (rate_of rates f.Problem.flow_id >= Rtf.flow_lrb v f -. 1e-6))
    (Lazy.force v.Problem.flows);
  (* Phase III maximizes: the NIC is saturated. *)
  checkf "saturated" 1000. (List.fold_left (fun acc (_, r) -> acc +. r) 0. rates)

let test_lpst_sticky_admission () =
  let alg = Lpst.lpst () in
  (* Event 1: task 1 alone, admitted and runs. *)
  let t1 = task ~id:1 ~deadline:10. ~volume:8000. ~sources:[| 1 |] ~destination:0 () in
  let v1 = view (flows_of t1) in
  Alcotest.(check bool) "t1 admitted" true (rate_of (alg.Algorithm.allocate v1) 100 > 0.);
  (* Event 2 at t=5: t1 half done; a rival arrives that will become
     urgent. Sticky admission keeps t1 even though re-triage from
     scratch might now prefer the rival. *)
  let t1_half = { (List.hd (flows_of t1)) with Problem.remaining = 4000. } in
  let rival = task ~id:2 ~arrival:5. ~deadline:10.5 ~volume:4600. ~sources:[| 2 |] ~destination:0 () in
  let v2 = view ~now:5. (t1_half :: flows_of rival) in
  let rates = alg.Algorithm.allocate v2 in
  Alcotest.(check bool) "t1 keeps at least its LRB" true
    (rate_of rates 100 >= Rtf.flow_lrb v2 t1_half -. 1e-6)

let test_lpst_expired_never_admitted () =
  let expired = task ~id:1 ~deadline:1. ~volume:1000. ~sources:[| 1 |] ~destination:0 () in
  let v = view ~now:2. (flows_of expired) in
  Alcotest.(check int) "no admission past deadline" 0 (List.length (Lpst.admit v));
  Alcotest.(check (list (pair int (Alcotest.float 1e-9)))) "no rates" []
    ((Lpst.lpst ()).Algorithm.allocate v)

let test_shortest_path_selection () =
  (* Destination 0 (rack 0): server 1 is intra-rack, 4 and 7 are not. *)
  let t = task ~k:2 ~sources:[| 7; 4; 1 |] ~destination:0 () in
  let select = Algorithm.source_selector Algorithm.Shortest_path in
  let picked = select (view []) t in
  Alcotest.(check (array int)) "intra-rack first, then lowest id" [| 1; 4 |] picked

let test_source_selector_random_distinct () =
  let select = Algorithm.source_selector (Algorithm.Random_sources 5) in
  let t = task ~k:3 ~sources:[| 1; 2; 4; 5; 7 |] ~destination:0 () in
  for _ = 1 to 30 do
    let picked = select (view []) t in
    Alcotest.(check int) "k" 3 (Array.length picked);
    Alcotest.(check int) "distinct" 3
      (List.length (List.sort_uniq compare (Array.to_list picked)))
  done

let test_abandon_flags () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check bool) name expected (Registry.make name).Algorithm.abandon_expired)
    [ ("fifo", false); ("disfifo", false); ("edf", false); ("disedf", false);
      ("lstf", false); ("lpall", true); ("lpst", true); ("lpst-p1", true)
    ]

let qcheck =
  let open QCheck in
  let scenario = make Gen.(pair (1 -- 6) (0 -- 100000)) in
  let random_view (n, seed) =
    let g = S3_util.Prng.create seed in
    let flows =
      List.concat
        (List.init n (fun i ->
             let destination = S3_util.Prng.int g 9 in
             let source = (destination + 1 + S3_util.Prng.int g 8) mod 9 in
             let source = if source = destination then (source + 1) mod 9 else source in
             let t =
               task ~id:i
                 ~arrival:(S3_util.Prng.float g 5.)
                 ~deadline:(6. +. S3_util.Prng.float g 20.)
                 ~volume:(10. +. S3_util.Prng.float g 8000.)
                 ~sources:[| source |] ~destination ()
             in
             [ flow ~flow_id:i ~source t ]))
    in
    view ~now:5.5 flows
  in
  List.map
    (fun name ->
      Test.make
        ~name:(Printf.sprintf "%s allocations always fit capacity" name)
        ~count:150 scenario
        (fun s ->
          let v = random_view s in
          let alg = Registry.make name in
          respects_capacities v (alg.Algorithm.allocate v)))
    [ "fifo"; "disfifo"; "edf"; "disedf"; "lstf"; "lpall"; "lpst"; "lpst-p1"; "lpst-p2";
      "lpst-p3"
    ]

let tests =
  ( "algorithms",
    [ tc "registry names" `Quick test_registry_names;
      tc "registry case-insensitive" `Quick test_registry_case_insensitive;
      tc "fifo head only" `Quick test_fifo_head_only;
      tc "disfifo parallel" `Quick test_dis_fifo_parallel;
      tc "edf priority and preemption" `Quick test_edf_priority_and_preemption;
      tc "lstf orders by slack" `Quick test_lstf_orders_by_slack;
      tc "lpall theta scaling" `Quick test_lpall_theta_scaling;
      tc "lpall feasible demands met" `Quick test_lpall_feasible_demands_met;
      tc "lpst admits urgent first" `Quick test_lpst_admits_urgent_first;
      tc "lpst admission respects capacity" `Quick test_lpst_admission_respects_capacity;
      tc "lpst allocate guarantees" `Quick test_lpst_allocate_guarantees;
      tc "lpst sticky admission" `Quick test_lpst_sticky_admission;
      tc "lpst never admits expired" `Quick test_lpst_expired_never_admitted;
      tc "shortest-path selection" `Quick test_shortest_path_selection;
      tc "random selection distinct" `Quick test_source_selector_random_distinct;
      tc "abandon flags" `Quick test_abandon_flags
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
