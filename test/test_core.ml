(* Tests for the core scheduling building blocks: Problem views, RTF,
   congestion / source selection, and the allocation primitives. *)

module Problem = S3_core.Problem
module Rtf = S3_core.Rtf
module Congestion = S3_core.Congestion
module Allocation = S3_core.Allocation
module Sequencing = S3_core.Sequencing
module Task = S3_workload.Task
module T = S3_net.Topology
open Helpers

let tc = Alcotest.test_case
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

(* ---- Problem ---- *)

let test_route_and_path () =
  let t = task ~sources:[| 1 |] ~destination:0 () in
  let f = flow ~source:1 t in
  let v = view [ f ] in
  Alcotest.(check int) "intra-rack hops" 2 (Array.length (Problem.route_arr v f));
  checkf "path available" 1000. (Problem.flow_path_available v f);
  checkf "cross-rack bottleneck" 1000. (Problem.path_available v ~src:4 ~dst:0);
  checkf "self path" infinity (Problem.path_available v ~src:2 ~dst:2)

let test_by_task_grouping () =
  let t1 = task ~id:1 ~k:2 ~sources:[| 3; 4; 5 |] () in
  let t2 = task ~id:2 ~sources:[| 7 |] () in
  let v = view (flows_of t1 @ flows_of t2) in
  let groups = Problem.by_task v in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let g1 = List.assoc t1 groups in
  Alcotest.(check int) "t1 flows" 2 (List.length g1);
  Alcotest.(check int) "order preserved" 1 (fst (List.hd groups)).Task.id

(* ---- RTF ---- *)

(* Eq. (12) for one flow: the RTF of a task with that single flow. *)
let flow_rtf v f = Rtf.task_rtf v [ f ]

let test_lrb () =
  checkf "basic" 100. (Rtf.lrb ~now:0. ~deadline:10. ~remaining:1000.);
  checkf "partway" 250. (Rtf.lrb ~now:6. ~deadline:10. ~remaining:1000.);
  Alcotest.(check bool) "expired" true (Rtf.lrb ~now:10. ~deadline:10. ~remaining:1. = infinity);
  Alcotest.check_raises "negative remaining"
    (Invalid_argument "Rtf.lrb: negative remaining volume") (fun () ->
      ignore (Rtf.lrb ~now:0. ~deadline:1. ~remaining:(-1.)))

let test_flow_rtf () =
  (* Fig. 1 example values: f = d - t - v/C. *)
  let t = task ~deadline:10. ~volume:6000. ~sources:[| 1 |] ~destination:0 () in
  let available _ = 2000. in
  let v = view ~available [ flow t ] in
  checkf "rtf" 7. (flow_rtf v (flow t));
  (* Before the task's start time, waiting begins at s_i. *)
  let future = task ~arrival:5. ~deadline:10. ~volume:6000. ~sources:[| 1 |] ~destination:0 () in
  checkf "uses max(now, s)" 2. (flow_rtf (view ~available [ flow future ]) (flow future))

let test_task_rtf_min () =
  let t = task ~k:2 ~deadline:10. ~volume:2000. ~sources:[| 1; 4 |] ~destination:0 () in
  (* Source 1 is intra-rack (1000 Mb/s), source 4 crosses TORs with the
     same bottleneck, but shrink one server's capacity to differ. *)
  let available e = if e = 4 then 500. else raw_available topo e in
  let v = view ~available (flows_of t) in
  let rtfs = List.map (flow_rtf v) (flows_of t) in
  checkf "task rtf is min" (S3_util.Stats.minimum rtfs) (Rtf.task_rtf v (flows_of t));
  Alcotest.check_raises "empty" (Invalid_argument "Rtf.task_rtf: no flows") (fun () ->
      ignore (Rtf.task_rtf v []))

let test_rtf_zero_capacity () =
  let t = task () in
  let v = view ~available:(fun _ -> 0.) [ flow t ] in
  Alcotest.(check bool) "neg infinity" true (flow_rtf v (flow t) = neg_infinity)

(* ---- Congestion ---- *)

let test_congestion_of_view () =
  let t = task ~deadline:10. ~volume:1000. ~sources:[| 1 |] ~destination:0 () in
  let v = view [ flow t ] in
  let c = Congestion.of_view v in
  (* LRB = 100 on both endpoints of the intra-rack route. *)
  checkf "src server" 100. (Congestion.factor c (T.server_entity topo 1));
  checkf "dst server" 100. (Congestion.factor c (T.server_entity topo 0));
  checkf "untouched" 0. (Congestion.factor c (T.server_entity topo 8))

let test_congestion_path_ops () =
  let c = Congestion.of_view (view []) in
  Congestion.add_path c [| 1; 2 |] 50.;
  Congestion.add_path c [| 2; 3 |] 25.;
  checkf "sum" 75. (Congestion.factor c 2);
  checkf "one path" 50. (Congestion.factor c 1);
  checkf "untouched" 0. (Congestion.factor c 4)

let test_select_least_congested () =
  (* A busy flow into server 0 from server 1; a new task should prefer
     the idle candidates. *)
  let busy = task ~id:9 ~deadline:2. ~volume:1800. ~sources:[| 1 |] ~destination:2 () in
  let v = view (flows_of busy) in
  let fresh = task ~id:1 ~k:2 ~sources:[| 1; 4; 7 |] ~destination:0 () in
  let picked = Congestion.select_least_congested v fresh in
  Alcotest.(check (array int)) "avoids the loaded server 1" [| 4; 7 |] picked

let test_select_least_congested_k () =
  let fresh = task ~k:3 ~sources:[| 1; 2; 4; 7 |] ~destination:0 () in
  let picked = Congestion.select_least_congested (view []) fresh in
  Alcotest.(check int) "k sources" 3 (Array.length picked);
  Alcotest.(check bool) "distinct" true
    (List.sort_uniq compare (Array.to_list picked) |> List.length = 3)

let test_select_random () =
  let g = S3_util.Prng.create 3 in
  let fresh = task ~k:2 ~sources:[| 1; 2; 4; 7 |] () in
  for _ = 1 to 50 do
    let picked = Congestion.select_random g fresh in
    Alcotest.(check int) "k" 2 (Array.length picked);
    Array.iter
      (fun s ->
        Alcotest.(check bool) "candidate" true
          (Array.exists (fun c -> c = s) fresh.Task.sources))
      picked
  done

(* ---- Allocation ---- *)

(* Max–min water filling is priority filling with one group. *)
let water_fill v flows = Allocation.priority_fill v [ flows ]

let test_water_fill_single () =
  let t = task ~sources:[| 1 |] ~destination:0 () in
  let v = view [ flow t ] in
  let rates = water_fill v [ flow t ] in
  checkf "full path speed" 1000. (rate_of rates 0)

let test_water_fill_sharing () =
  (* Two flows into the same destination NIC split it evenly. *)
  let t = task ~k:2 ~sources:[| 1; 2 |] ~destination:0 () in
  let flows = flows_of t in
  let v = view flows in
  let rates = water_fill v flows in
  List.iter (fun f -> checkf "half each" 500. (rate_of rates f.Problem.flow_id)) flows;
  Alcotest.(check bool) "capacities respected" true (respects_capacities v rates)

let test_water_fill_max_min () =
  (* Flow a shares the destination with flow b; flow b also crosses a
     throttled source. Max-min: b freezes low, a takes the rest. *)
  let ta = task ~id:0 ~sources:[| 1 |] ~destination:0 () in
  let tb = task ~id:1 ~sources:[| 4 |] ~destination:0 () in
  let fa = flow ~flow_id:0 ~source:1 ta in
  let fb = flow ~flow_id:1 ~source:4 tb in
  let available e = if e = T.server_entity topo 4 then 200. else raw_available topo e in
  let v = view ~available [ fa; fb ] in
  let rates = water_fill v [ fa; fb ] in
  checkf "throttled flow" 200. (rate_of rates 1);
  checkf "other takes the rest" 800. (rate_of rates 0)

let test_priority_fill () =
  let ta = task ~id:0 ~sources:[| 1 |] ~destination:0 () in
  let tb = task ~id:1 ~sources:[| 2 |] ~destination:0 () in
  let fa = flow ~flow_id:0 ~source:1 ta and fb = flow ~flow_id:1 ~source:2 tb in
  let v = view [ fa; fb ] in
  let rates = Allocation.priority_fill v [ [ fa ]; [ fb ] ] in
  checkf "head gets all" 1000. (rate_of rates 0);
  checkf "second starves" 0. (rate_of rates 1);
  Alcotest.(check bool) "capacities respected" true (respects_capacities v rates)

let test_lp_allocate () =
  let t = task ~k:2 ~deadline:10. ~volume:1000. ~sources:[| 1; 2 |] ~destination:0 () in
  let flows = flows_of t in
  let v = view flows in
  match Allocation.lp_allocate ~lower:(fun _ -> 100.) v flows with
  | None -> Alcotest.fail "feasible expected"
  | Some rates ->
    Alcotest.(check bool) "capacities" true (respects_capacities v rates);
    List.iter
      (fun f ->
        Alcotest.(check bool) "lower bound" true (rate_of rates f.Problem.flow_id >= 100. -. 1e-6))
      flows;
    (* Objective: the destination NIC should be saturated. *)
    let total = List.fold_left (fun acc (_, r) -> acc +. r) 0. rates in
    checkf "saturates bottleneck" 1000. total

let test_lp_allocate_infeasible () =
  let t = task ~k:2 ~sources:[| 1; 2 |] ~destination:0 () in
  let flows = flows_of t in
  let v = view flows in
  Alcotest.(check bool) "infeasible lower bounds" true
    (Allocation.lp_allocate ~lower:(fun _ -> 600.) v flows = None)

let test_max_feasible_scale () =
  let t = task ~k:2 ~sources:[| 1; 2 |] ~destination:0 () in
  let flows = flows_of t in
  let v = view flows in
  let demands = List.map (fun f -> (f, 700.)) flows in
  (* 1400 demanded of the 1000 destination NIC -> theta = 5/7. *)
  checkf "theta" (1000. /. 1400.) (Allocation.max_feasible_scale v demands);
  checkf "all fits" 1. (Allocation.max_feasible_scale v (List.map (fun f -> (f, 100.)) flows));
  checkf "no demand" 1. (Allocation.max_feasible_scale v [])

(* ---- Sequencing ---- *)

(* The order reached through [disjoint_groups]: tasks on disjoint
   servers are all admitted, one group each, in (key, id) order. *)
let test_ordered_tasks () =
  let t1 = task ~id:1 ~deadline:20. ~sources:[| 4 |] ~destination:0 () in
  let t2 = task ~id:2 ~deadline:5. ~sources:[| 5 |] ~destination:1 () in
  let t3 = task ~id:3 ~deadline:5. ~sources:[| 7 |] ~destination:2 () in
  let v = view (flows_of t3 @ flows_of t1 @ flows_of t2) in
  let key _ ((t : Task.t), _) = t.Task.deadline in
  let ordered = Sequencing.disjoint_groups v ~key in
  Alcotest.(check (list (list int))) "deadline order, ties by id" [ [ 2 ]; [ 3 ]; [ 1 ] ]
    (List.map (List.map (fun (f : Problem.flow) -> f.Problem.task.Task.id)) ordered)

let test_head_only () =
  let t1 = task ~id:1 ~deadline:20. () in
  let t2 = task ~id:2 ~deadline:5. ~sources:[| 2 |] () in
  let v = view (flows_of t1 @ flows_of t2) in
  let key _ ((t : Task.t), _) = t.Task.deadline in
  (match Sequencing.head_only v ~key with
   | [ [ f ] ] -> Alcotest.(check int) "head is t2" 2 f.Problem.task.Task.id
   | _ -> Alcotest.fail "one group with one flow expected");
  Alcotest.(check int) "empty view" 0 (List.length (Sequencing.head_only (view []) ~key))

let test_disjoint_groups_servers () =
  (* Two tasks on disjoint servers both run even though both cross the
     same TOR uplinks (trunk sharing is allowed by design). *)
  let t1 = task ~id:1 ~sources:[| 4 |] ~destination:0 () in
  let t2 = task ~id:2 ~sources:[| 5 |] ~destination:1 () in
  let v = view (flows_of t1 @ flows_of t2) in
  let key _ ((t : Task.t), _) = t.Task.arrival in
  Alcotest.(check int) "both admitted" 2 (List.length (Sequencing.disjoint_groups v ~key));
  (* Sharing a server blocks. *)
  let t3 = task ~id:3 ~sources:[| 4 |] ~destination:2 () in
  let v2 = view (flows_of t1 @ flows_of t3) in
  Alcotest.(check int) "server conflict blocks" 1
    (List.length (Sequencing.disjoint_groups v2 ~key))

let qcheck =
  let open QCheck in
  let scenario =
    (* Random set of tasks over the 9-server fixture. *)
    make
      Gen.(
        let* n = 1 -- 8 in
        let* seed = 0 -- 100000 in
        return (n, seed))
  in
  let random_flows (n, seed) =
    let g = S3_util.Prng.create seed in
    List.init n (fun i ->
        let destination = S3_util.Prng.int g 9 in
        let source = (destination + 1 + S3_util.Prng.int g 8) mod 9 in
        let source = if source = destination then (source + 1) mod 9 else source in
        let t =
          task ~id:i ~deadline:(1. +. S3_util.Prng.float g 20.)
            ~volume:(10. +. S3_util.Prng.float g 5000.)
            ~sources:[| source |] ~destination ()
        in
        flow ~flow_id:i ~source t)
  in
  [ Test.make ~name:"water_fill respects all capacities" ~count:300 scenario (fun s ->
        let flows = random_flows s in
        let v = view flows in
        respects_capacities v (water_fill v flows));
    Test.make ~name:"water_fill gives every flow a positive rate" ~count:300 scenario
      (fun s ->
        let flows = random_flows s in
        let v = view flows in
        let rates = water_fill v flows in
        List.for_all (fun f -> rate_of rates f.Problem.flow_id > 0.) flows);
    Test.make ~name:"lp_allocate respects capacities and beats water_fill's total" ~count:200
      scenario (fun s ->
        let flows = random_flows s in
        let v = view flows in
        match Allocation.lp_allocate v flows with
        | None -> false
        | Some rates ->
          let total r = List.fold_left (fun acc (_, x) -> acc +. x) 0. r in
          respects_capacities v rates
          && total rates >= total (water_fill v flows) -. 1e-6);
    Test.make ~name:"priority_fill never exceeds capacities" ~count:200 scenario (fun s ->
        let flows = random_flows s in
        let v = view flows in
        let groups = List.map (fun f -> [ f ]) flows in
        respects_capacities v (Allocation.priority_fill v groups))
  ]

let tests =
  ( "core",
    [ tc "route and path" `Quick test_route_and_path;
      tc "by_task grouping" `Quick test_by_task_grouping;
      tc "lrb" `Quick test_lrb;
      tc "flow rtf" `Quick test_flow_rtf;
      tc "task rtf is min" `Quick test_task_rtf_min;
      tc "rtf zero capacity" `Quick test_rtf_zero_capacity;
      tc "congestion of view" `Quick test_congestion_of_view;
      tc "congestion path ops" `Quick test_congestion_path_ops;
      tc "select least congested" `Quick test_select_least_congested;
      tc "select k distinct" `Quick test_select_least_congested_k;
      tc "select random" `Quick test_select_random;
      tc "water fill single" `Quick test_water_fill_single;
      tc "water fill sharing" `Quick test_water_fill_sharing;
      tc "water fill max-min" `Quick test_water_fill_max_min;
      tc "priority fill" `Quick test_priority_fill;
      tc "lp allocate" `Quick test_lp_allocate;
      tc "lp allocate infeasible" `Quick test_lp_allocate_infeasible;
      tc "max feasible scale" `Quick test_max_feasible_scale;
      tc "ordered tasks" `Quick test_ordered_tasks;
      tc "head only" `Quick test_head_only;
      tc "disjoint on servers" `Quick test_disjoint_groups_servers
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
