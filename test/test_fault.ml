(* Deterministic fault injection: plan parsing and cursor semantics,
   pinned golden fault scenarios, re-homing vs the no-reselection
   baseline, Invalid_selection, closed-loop repair, and a seeded chaos
   campaign checking machine-verified invariants across every shipped
   algorithm. Every QCheck input is a PRNG seed, so a failure prints
   the exact integer needed to replay it. *)

module Engine = S3_sim.Engine
module Metrics = S3_sim.Metrics
module Report = S3_sim.Report
module Watchdog = S3_sim.Watchdog
module Fault = S3_fault.Fault
module Registry = S3_core.Registry
module Algorithm = S3_core.Algorithm
module Problem = S3_core.Problem
module Generator = S3_workload.Generator
module Task = S3_workload.Task
module Cluster = S3_storage.Cluster
module T = S3_net.Topology
module Prng = S3_util.Prng
module Sweep = S3_par.Sweep

let tc = Alcotest.test_case
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg
let topo = Helpers.topo  (* two-tier, 3 racks x 3 servers, cst 1000, cta 3000 *)

let crash_at time s = Fault.plan [ { Fault.time; kind = Fault.Server_crash s } ]

(* The fig. 5-style setup used across the acceptance tests: a 30-server
   two-tier fabric under a (9,6)-coded background workload. *)
let fig5_workload seed =
  let big = T.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let tasks =
    Generator.generate (Prng.create seed) big
      { Generator.num_tasks = 60;
        arrival_rate = 0.8;
        chunk_size_mb = 64.;
        code_mix = [ ((9, 6), 1.) ];
        deadline_factor = 10.;
        deadline_jitter = 0.4;
        placement = S3_storage.Placement.Rack_aware
      }
  in
  (big, tasks)

(* ---- plans: parsing, validation, the cursor ---- *)

let test_spec_roundtrip () =
  match Fault.of_string "crash@30:5,degrade@10:3:0.5:20,recover@60:5,rack@45:1" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Alcotest.(check string) "time-sorted round trip"
      "degrade@10:3:0.5:20,crash@30:5,rack@45:1,recover@60:5" (Fault.to_string plan);
    (match Fault.of_string (Fault.to_string plan) with
     | Ok again ->
       Alcotest.(check string) "stable" (Fault.to_string plan) (Fault.to_string again)
     | Error e -> Alcotest.fail e)

let test_spec_rejects_malformed () =
  List.iter
    (fun spec ->
      match Fault.of_string spec with
      | Ok _ -> Alcotest.failf "%S should not parse" spec
      | Error _ -> ())
    [ "crash@-1:0";  (* negative time *)
      "degrade@1:0:1.5:5";  (* factor > 1 *)
      "degrade@1:0:0.5:0";  (* zero duration *)
      "crash@x:0";
      "boom@1:2";
      "crash@1"
    ]

let test_plan_validation () =
  Alcotest.check_raises "degradation factor"
    (Invalid_argument "Fault.plan: degradation factor must lie in [0, 1]") (fun () ->
      ignore
        (Fault.plan
           [ { Fault.time = 1.; kind = Fault.Link_degrade { entity = 0; factor = 2.; duration = 1. } } ]));
  Alcotest.check_raises "index checked against the topology"
    (Invalid_argument "Fault.start: server outside the topology") (fun () ->
      ignore (Fault.start topo (crash_at 1. 99)))

let test_cursor_semantics () =
  let plan =
    Fault.plan
      [ { Fault.time = 1.; kind = Fault.Server_crash 1 };
        { Fault.time = 2.; kind = Fault.Link_degrade { entity = 0; factor = 0.5; duration = 2. } };
        { Fault.time = 3.; kind = Fault.Server_recover 1 };
        { Fault.time = 5.; kind = Fault.Rack_outage 0 }
      ]
  in
  let st = Fault.start topo plan in
  Alcotest.(check bool) "starts alive" false (Fault.dead st 1);
  checkf "first change" 1. (Fault.next_change st);
  (match Fault.advance st 1. with
   | [ Fault.Crashed 1 ] -> ()
   | _ -> Alcotest.fail "expected exactly [Crashed 1]");
  Alcotest.(check bool) "dead now" true (Fault.dead st 1);
  checkf "dead NIC contributes nothing" 0. (Fault.multiplier st (T.server_entity topo 1));
  (match Fault.advance st 2. with
   | [ Fault.Degraded 0 ] -> ()
   | _ -> Alcotest.fail "expected [Degraded 0]");
  checkf "degraded capacity" 0.5 (Fault.multiplier st 0);
  (match Fault.advance st 3. with
   | [ Fault.Recovered 1 ] -> ()
   | _ -> Alcotest.fail "expected [Recovered 1]");
  Alcotest.(check bool) "alive again" false (Fault.dead st 1);
  Alcotest.(check bool) "but remembered" true (Fault.ever_crashed st 1);
  checkf "expiry is a change point" 4. (Fault.next_change st);
  (match Fault.advance st 4. with
   | [ Fault.Restored 0 ] -> ()
   | _ -> Alcotest.fail "expected [Restored 0]");
  checkf "capacity restored" 1. (Fault.multiplier st 0);
  let crashed =
    Fault.advance st 5.
    |> List.filter_map (function Fault.Crashed s -> Some s | _ -> None)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "rack outage kills every live server of the rack" [ 0; 1; 2 ]
    crashed;
  Alcotest.(check bool) "script exhausted" true (Fault.exhausted st);
  (* second crash of a dead server is a no-op *)
  let st2 = Fault.start topo (Fault.plan [ { Fault.time = 1.; kind = Fault.Server_crash 0 };
                                           { Fault.time = 2.; kind = Fault.Server_crash 0 } ]) in
  ignore (Fault.advance st2 1.);
  Alcotest.(check int) "re-crash reports nothing" 0 (List.length (Fault.advance st2 2.))

let test_simultaneous_crash_recover_plan_order () =
  (* Equal-time events resolve in plan order (the sort is stable), so
     the two spellings of a same-instant crash/recover pair on one
     server are NOT equivalent — this pins the documented tie break. *)
  let crash s = { Fault.time = 2.; kind = Fault.Server_crash s } in
  let recover s = { Fault.time = 2.; kind = Fault.Server_recover s } in
  (* crash;recover — the server bounces: both changes fire, it ends
     alive but marked ever_crashed (its chunks are gone). *)
  let st = Fault.start topo (Fault.plan [ crash 1; recover 1 ]) in
  (match Fault.advance st 2. with
   | [ Fault.Crashed 1; Fault.Recovered 1 ] -> ()
   | _ -> Alcotest.fail "crash;recover@T should fire [Crashed; Recovered]");
  Alcotest.(check bool) "bounced server is alive" false (Fault.dead st 1);
  Alcotest.(check bool) "but remembered as crashed" true (Fault.ever_crashed st 1);
  (* recover;crash on a live server — the recover is a no-op, only the
     crash fires, the server ends dead. *)
  let st = Fault.start topo (Fault.plan [ recover 1; crash 1 ]) in
  (match Fault.advance st 2. with
   | [ Fault.Crashed 1 ] -> ()
   | _ -> Alcotest.fail "recover;crash@T on a live server should fire only [Crashed]");
  Alcotest.(check bool) "server ends dead" true (Fault.dead st 1);
  (* The same pair arriving through the string spec keeps its item
     order: the spec is the plan order for equal times. *)
  (match Fault.of_string "crash@2:1,recover@2:1" with
   | Error e -> Alcotest.fail e
   | Ok p ->
     Alcotest.(check string) "spec order survives the stable sort"
       "crash@2:1,recover@2:1" (Fault.to_string p);
     let st = Fault.start topo p in
     ignore (Fault.advance st 2.);
     Alcotest.(check bool) "spec bounce leaves the server alive" false (Fault.dead st 1))

let test_degradations_compound () =
  let plan =
    Fault.plan
      [ { Fault.time = 0.; kind = Fault.Link_degrade { entity = 0; factor = 0.5; duration = 10. } };
        { Fault.time = 1.; kind = Fault.Link_degrade { entity = 0; factor = 0.4; duration = 1. } }
      ]
  in
  let st = Fault.start topo plan in
  ignore (Fault.advance st 0.);
  checkf "one degradation" 0.5 (Fault.multiplier st 0);
  ignore (Fault.advance st 1.);
  checkf "overlap multiplies" 0.2 (Fault.multiplier st 0);
  ignore (Fault.advance st 2.);
  checkf "inner expiry restores its factor" 0.5 (Fault.multiplier st 0)

let test_random_plan_deterministic () =
  let mk seed =
    Fault.to_string
      (Fault.random (Prng.create seed) topo ~horizon:100. ~crashes:2 ~rack_outages:1
         ~degradations:2 ())
  in
  Alcotest.(check string) "equal seeds, equal plans" (mk 42) (mk 42);
  Alcotest.(check bool) "different seeds differ" true (mk 42 <> mk 43)

(* ---- the cursor's accessors against a list model ----

   [Model] replays a plan's events ([Fault.events]) with the list
   arithmetic of a global scan: every unexpired degradation sits in one
   newest-first list, which each query filters down to one entity.
   [accessor_mismatch] steps the cursor and the model through a random
   plan and compares [multiplier], [degraded], [deliverable] and
   [next_change] bit for bit. *)

module Model = struct
  type degradation = { entity : int; factor : float; until : float }

  type t = {
    script : Fault.event array;
    mutable next : int;
    mutable active : degradation list;  (* newest first *)
    dead : bool array;
    ever : bool array;
    owner : int array;  (* entity -> the server whose NIC it is, or -1 *)
    mutable clock : float;
  }

  let eps = 1e-9

  let start plan =
    let owner = Array.make (Array.length (T.entities topo)) (-1) in
    for s = 0 to T.servers topo - 1 do
      owner.(T.server_entity topo s) <- s
    done;
    { script = Array.of_list (Fault.events plan);
      next = 0;
      active = [];
      dead = Array.make (T.servers topo) false;
      ever = Array.make (T.servers topo) false;
      owner;
      clock = 0.
    }

  let crash m s =
    m.dead.(s) <- true;
    m.ever.(s) <- true

  let advance m t =
    let t = max t m.clock in
    m.clock <- t;
    m.active <- List.filter (fun d -> d.until > t +. eps) m.active;
    while m.next < Array.length m.script && m.script.(m.next).Fault.time <= t +. eps do
      let ev = m.script.(m.next) in
      m.next <- m.next + 1;
      match ev.Fault.kind with
      | Fault.Server_crash s -> crash m s
      | Fault.Server_recover s -> m.dead.(s) <- false
      | Fault.Rack_outage r -> List.iter (crash m) (T.servers_in_rack topo r)
      | Fault.Link_degrade { entity; factor; duration } ->
        m.active <- { entity; factor; until = ev.Fault.time +. duration } :: m.active
    done

  let on m e = List.filter (fun d -> d.entity = e) m.active
  let owner_dead m e = m.owner.(e) >= 0 && m.dead.(m.owner.(e))

  let next_change m =
    List.fold_left
      (fun acc d -> min acc d.until)
      (if m.next < Array.length m.script then m.script.(m.next).Fault.time else infinity)
      m.active

  let multiplier m e =
    if owner_dead m e then 0. else List.fold_left (fun acc d -> acc *. d.factor) 1. (on m e)

  let degraded m e = on m e <> []

  let deliverable m e ~from ~until =
    let from = max from m.clock in
    if until <= from || owner_dead m e then 0.
    else begin
      let ds = on m e in
      let cuts =
        List.filter_map
          (fun d -> if d.until > from && d.until < until then Some d.until else None)
          ds
        |> List.sort_uniq Float.compare
      in
      let rec go a cuts acc =
        let b = match cuts with [] -> until | c :: _ -> c in
        let mult =
          List.fold_left (fun mult d -> if d.until > a +. eps then mult *. d.factor else mult) 1. ds
        in
        let acc = acc +. ((b -. a) *. mult) in
        match cuts with [] -> acc | _ :: rest -> go b rest acc
      in
      go from cuts 0.
    end
end

(* The entities the random plans aim at: the NICs of servers 1 and 4
   (whose crashes and recoveries the plans script), rack 1's ToR, and
   the NIC of server 7, which no crash reaches. *)
let model_entities =
  [| T.server_entity topo 1;
     T.server_entity topo 4;
     (T.route_array topo ~src:4 ~dst:0).(1);
     T.server_entity topo 7
  |]

(* Event times and durations sit on a quarter-second grid, so expiries
   coincide with other expiries, with event times and with the query
   times below. About five plans in six open with three overlapping
   degradations on one entity; the rest script no degradation at all.
   Factors 0, 1e-12 and 1 are drawn often, and the inexact ones tell a
   product from the same product in another order. *)
let model_plan g =
  let pick a = a.(Prng.int g (Array.length a)) in
  let grid n = 0.25 *. float_of_int (Prng.int g n) in
  let factor () =
    match Prng.int g 6 with
    | 0 -> 0.
    | 1 -> 1e-12
    | 2 -> 1.
    | _ -> Prng.uniform g 0.05 0.95
  in
  let degrade time entity ~duration =
    { Fault.time; kind = Fault.Link_degrade { entity; factor = factor (); duration } }
  in
  let degrading = Prng.int g 6 > 0 in
  let e = pick model_entities in
  let t0 = grid 16 in
  let opening =
    if not degrading then []
    else
      degrade t0 e ~duration:(1. +. grid 12)
      :: List.init 2 (fun _ -> degrade (t0 +. grid 4) e ~duration:(0.25 +. grid 16))
  in
  let extra =
    List.init (Prng.int g 10) (fun _ ->
        let time = grid 33 in
        match Prng.int g 8 with
        | 0 | 1 | 2 | 3 when degrading ->
          degrade time (pick model_entities) ~duration:(0.25 +. grid 16)
        | 0 | 1 | 2 | 3 | 4 | 5 -> { Fault.time; kind = Fault.Server_crash (pick [| 1; 4 |]) }
        | 6 -> { Fault.time; kind = Fault.Server_recover (pick [| 1; 4 |]) }
        | _ -> { Fault.time; kind = Fault.Rack_outage 1 })
  in
  Fault.plan (opening @ extra)

(* Step the cursor and the model through one random plan: 45 steps on
   the grid, some nudged off it and some behind the clock. At every
   step compare [next_change], then [multiplier] and [degraded] on every
   entity, then [deliverable] on the aimed-at entities over windows
   whose ends are the clock, points before it, grid points, every
   active expiry and points just inside the engine's 1e-9 tolerance
   before one. [note] counts the situations a query crossed. *)
let accessor_mismatch ?(note = fun _ -> ()) seed =
  let g = Prng.create seed in
  let plan = model_plan g in
  let st = Fault.start topo plan and m = Model.start plan in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let nent = Array.length (T.entities topo) in
  let mismatch = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !mismatch = None then mismatch := Some s) fmt in
  if
    not
      (List.exists
         (fun ev -> match ev.Fault.kind with Fault.Link_degrade _ -> true | _ -> false)
         (Fault.events plan))
  then note "plan without degradations";
  let step i =
    let t =
      let base = 0.25 *. float_of_int i in
      match Prng.int g 6 with
      | 0 -> base +. Prng.float g 0.25
      | 1 -> base -. 1.
      | _ -> base
    in
    ignore (Fault.advance st t);
    Model.advance m t;
    let clock = m.Model.clock in
    if not (same (Fault.next_change st) (Model.next_change m)) then
      fail "t=%h: next_change %h, model %h" t (Fault.next_change st) (Model.next_change m);
    for e = 0 to nent - 1 do
      if not (same (Fault.multiplier st e) (Model.multiplier m e)) then
        fail "t=%h e=%d: multiplier %h, model %h" t e (Fault.multiplier st e)
          (Model.multiplier m e);
      if Fault.degraded st e <> Model.degraded m e then fail "t=%h e=%d: degraded differs" t e
    done;
    let expiries = List.map (fun d -> d.Model.until) m.Model.active in
    Array.iter
      (fun e ->
        let ds = Model.on m e in
        let owner = m.Model.owner.(e) in
        List.iter
          (fun from ->
            List.iter
              (fun until ->
                let got = Fault.deliverable st e ~from ~until in
                let want = Model.deliverable m e ~from ~until in
                if not (same got want) then
                  fail "t=%h e=%d [%h, %h): deliverable %h, model %h" t e from until got want;
                let lo = max from clock in
                if until > lo then begin
                  if from < clock then note "window before the clock";
                  if List.length ds >= 2 then note "overlapping degradations";
                  List.iter
                    (fun d ->
                      List.iter
                        (fun (x, name) ->
                          (* lint: allow float-eq — the plans draw these exact factors *)
                          if Float.equal d.Model.factor x then note name)
                        [ (0., "factor 0"); (1e-12, "factor 1e-12"); (1., "factor 1") ];
                      if d.Model.until > lo && d.Model.until < until then
                        note "expiry inside the window";
                      if d.Model.until = lo then note "expiry at from";
                      if d.Model.until = until then note "expiry at until")
                    ds;
                  if owner >= 0 && m.Model.dead.(owner) then note "crashed owner";
                  if owner >= 0 && m.Model.ever.(owner) && not m.Model.dead.(owner) then
                    note "recovered owner"
                end)
              ((from -. 0.25) :: from :: (from +. 0.25)
              :: (clock +. (0.25 *. float_of_int (Prng.int g 24)))
              :: 12. :: expiries))
          ((clock -. 0.5) :: 0. :: clock
          :: (clock +. (0.25 *. float_of_int (Prng.int g 8)))
          :: (expiries @ List.map (fun x -> x -. 5e-10) expiries)))
      model_entities
  in
  for i = 0 to 44 do
    if !mismatch = None then step i
  done;
  !mismatch

let model_situations =
  [ "overlapping degradations"; "factor 0"; "factor 1e-12"; "factor 1"; "expiry inside the window";
    "expiry at from"; "expiry at until"; "crashed owner"; "recovered owner";
    "window before the clock"; "plan without degradations"
  ]

(* The fixed batch the property's random seeds add to: it must agree
   with the model and cross every situation the accessors branch on. *)
let test_accessors_match_model () =
  let counts = Hashtbl.create 16 in
  let note s = Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)) in
  for seed = 0 to 39 do
    match accessor_mismatch ~note seed with
    | None -> ()
    | Some m -> Alcotest.failf "seed %d: %s" seed m
  done;
  List.iter
    (fun s ->
      if not (Hashtbl.mem counts s) then Alcotest.failf "no query crossed %S" s)
    model_situations

(* ---- golden fault scenarios (pinned numbers) ----

   Helpers.topo routes server 1 -> server 0 inside one rack over two
   1000 Mb/s NICs, so an unimpeded 1000 Mb chunk takes exactly 1 s. *)

let one_task ?(sources = [| 1; 2 |]) () =
  Task.v ~id:0 ~arrival:0. ~deadline:10. ~volume:1000. ~k:1 ~sources ~destination:0 ()

let test_golden_rehome () =
  (* Source dies halfway: LPST re-homes the chunk onto the survivor and
     restarts it at full volume — 500 Mb moved then thrown away, the
     replacement finishes at 0.5 + 1.0. *)
  let run = Engine.run ~faults:(crash_at 0.5 1) topo (Registry.make "lpst") [ one_task () ] in
  Alcotest.(check int) "completed" 1 (Metrics.completed run);
  let o = List.hd run.Metrics.outcomes in
  checkf "restart finishes at 1.5" 1.5 o.Metrics.finish_time;
  Alcotest.(check (array int)) "final source is the survivor" [| 2 |] o.Metrics.sources;
  checkf "transferred counts both fetches" 1500. run.Metrics.transferred;
  checkf "the partial fetch is waste" 500. run.Metrics.wasted;
  Alcotest.(check int) "one flow killed" 1 run.Metrics.flows_killed;
  Alcotest.(check int) "one re-homing" 1 run.Metrics.tasks_rehomed;
  Alcotest.(check int) "nothing lost" 0 run.Metrics.tasks_lost;
  Alcotest.(check int) "no clamping" 0 run.Metrics.clamp_events

let test_golden_unrecoverable () =
  (* Only candidate dies halfway: the task is lost with 500 Mb still
     owed, and everything moved was for nothing. *)
  let run =
    Engine.run ~faults:(crash_at 0.5 1) topo (Registry.make "lpst")
      [ one_task ~sources:[| 1 |] () ]
  in
  Alcotest.(check int) "completed" 0 (Metrics.completed run);
  let o = List.hd run.Metrics.outcomes in
  checkf "remaining captured at the loss" 500. o.Metrics.remaining;
  checkf "transferred" 500. run.Metrics.transferred;
  checkf "all of it wasted" 500. run.Metrics.wasted;
  Alcotest.(check int) "killed" 1 run.Metrics.flows_killed;
  Alcotest.(check int) "lost" 1 run.Metrics.tasks_lost;
  Alcotest.(check int) "no re-homing possible" 0 run.Metrics.tasks_rehomed

let test_destination_crash_loses_task () =
  let run = Engine.run ~faults:(crash_at 0.5 0) topo (Registry.make "lpst") [ one_task () ] in
  Alcotest.(check int) "completed" 0 (Metrics.completed run);
  Alcotest.(check int) "lost" 1 run.Metrics.tasks_lost;
  checkf "partial write wasted" 500. run.Metrics.wasted

let test_dead_destination_at_arrival () =
  let late = Task.v ~id:1 ~arrival:2. ~deadline:12. ~volume:1000. ~k:1 ~sources:[| 1 |]
      ~destination:0 () in
  let run = Engine.run ~faults:(crash_at 0.5 0) topo (Registry.make "lpst") [ late ] in
  Alcotest.(check int) "lost on arrival" 1 run.Metrics.tasks_lost;
  let o = List.hd run.Metrics.outcomes in
  checkf "whole volume stranded" 1000. o.Metrics.remaining;
  checkf "nothing moved" 0. run.Metrics.transferred

let test_recovered_server_is_no_source () =
  (* Server 1 crashes and returns before the task arrives: it is a
     valid destination again but its chunk is gone, so selection must
     take the survivor. *)
  let faults =
    Fault.plan
      [ { Fault.time = 0.1; kind = Fault.Server_crash 1 };
        { Fault.time = 0.2; kind = Fault.Server_recover 1 }
      ]
  in
  let task = Task.v ~id:0 ~arrival:0.3 ~deadline:10. ~volume:1000. ~k:1 ~sources:[| 1; 2 |]
      ~destination:0 () in
  let run = Engine.run ~faults topo (Registry.make "lpst") [ task ] in
  Alcotest.(check int) "completed" 1 (Metrics.completed run);
  let o = List.hd run.Metrics.outcomes in
  Alcotest.(check (array int)) "survivor chosen" [| 2 |] o.Metrics.sources;
  (* ... and the recovered server can sink new traffic *)
  let into_revived = Task.v ~id:1 ~arrival:0.3 ~deadline:10. ~volume:1000. ~k:1
      ~sources:[| 2 |] ~destination:1 () in
  let run2 = Engine.run ~faults topo (Registry.make "lpst") [ into_revived ] in
  Alcotest.(check int) "recovered destination works" 1 (Metrics.completed run2)

let test_golden_degradation () =
  (* The source NIC at half capacity for the whole transfer: 1000 Mb at
     500 Mb/s finishes at 2 s, and nothing ever needs clamping. *)
  let faults =
    Fault.plan
      [ { Fault.time = 0.;
          kind = Fault.Link_degrade { entity = T.server_entity topo 1; factor = 0.5; duration = 10. }
        }
      ]
  in
  let run = Engine.run ~faults topo (Registry.make "lpst") [ one_task ~sources:[| 1 |] () ] in
  Alcotest.(check int) "completed" 1 (Metrics.completed run);
  checkf "half rate doubles the transfer" 2. (List.hd run.Metrics.outcomes).Metrics.finish_time;
  Alcotest.(check int) "no clamping" 0 run.Metrics.clamp_events;
  checkf "nothing wasted" 0. run.Metrics.wasted

let test_empty_plan_is_identity () =
  let big, tasks = fig5_workload 3 in
  let plain = Engine.run big (Registry.make "lpst") tasks in
  let with_empty = Engine.run ~faults:Fault.empty big (Registry.make "lpst") tasks in
  Alcotest.(check string) "byte-identical run" (Report.fingerprint plain)
    (Report.fingerprint with_empty)

(* ---- the acceptance demo: re-homing beats freezing ---- *)

let test_rehoming_beats_no_reselection () =
  let big, tasks = fig5_workload 3 in
  let faults = crash_at 30. 5 in
  let lpst = Registry.make "lpst" in
  let frozen = { lpst with Algorithm.name = "LPST-frozen"; reselect = None } in
  let with_r = Engine.run ~faults big lpst tasks in
  let without = Engine.run ~faults big frozen tasks in
  Alcotest.(check bool) "the crash actually bites" true (with_r.Metrics.flows_killed > 0);
  Alcotest.(check bool) "subtasks were re-homed" true (with_r.Metrics.tasks_rehomed > 0);
  Alcotest.(check int) "frozen baseline re-homes nothing" 0 without.Metrics.tasks_rehomed;
  Alcotest.(check bool) "frozen baseline loses struck tasks" true
    (without.Metrics.tasks_lost > 0);
  Alcotest.(check bool)
    (Printf.sprintf "re-homing completes strictly more tasks (%d vs %d)"
       (Metrics.completed with_r) (Metrics.completed without))
    true
    (Metrics.completed with_r > Metrics.completed without)

(* ---- the deadline watchdog ---- *)

(* A pinned Link_degrade storm on the fig. 5 fabric: five source NICs
   at 5% capacity from t=30 for 60 s. Without the watchdog LPST misses
   five tasks; with it the two savable ones (unused clean spares exist)
   are rescued and the three provably infeasible ones are shed early. *)
let storm_scenario () =
  let big, tasks = fig5_workload 3 in
  let faults =
    Fault.plan
      (List.map
         (fun s ->
           { Fault.time = 30.;
             kind =
               Fault.Link_degrade
                 { entity = T.server_entity big s; factor = 0.05; duration = 60. }
           })
         [ 10; 11; 12; 13; 14 ])
  in
  (big, tasks, faults)

let test_watchdog_spec_roundtrip () =
  Alcotest.(check string) "default round trip" "slack=0.5,max-swaps=3,backoff=1"
    (Watchdog.to_string Watchdog.default);
  (match Watchdog.of_string "slack=1.25,max_swaps=2,backoff=0.5" with
   | Error e -> Alcotest.fail e
   | Ok c ->
     checkf "slack" 1.25 c.Watchdog.slack;
     Alcotest.(check int) "max swaps (underscore alias)" 2 c.Watchdog.max_swaps;
     checkf "backoff" 0.5 c.Watchdog.backoff;
     (match Watchdog.of_string (Watchdog.to_string c) with
      | Ok again ->
        Alcotest.(check string) "stable" (Watchdog.to_string c) (Watchdog.to_string again)
      | Error e -> Alcotest.fail e));
  (match Watchdog.of_string "default" with
   | Ok c ->
     Alcotest.(check string) "'default' parses" (Watchdog.to_string Watchdog.default)
       (Watchdog.to_string c)
   | Error e -> Alcotest.fail e);
  List.iter
    (fun spec ->
      match Watchdog.of_string spec with
      | Ok _ -> Alcotest.failf "%S should not parse" spec
      | Error e ->
        Alcotest.(check bool) "one-line message" false (String.contains e '\n'))
    [ "slack=oops"; "slck=1"; "slack"; "max-swaps=1.5"; "backoff=0"; "slack=-1";
      "backoff=nan"
    ]

let test_watchdog_off_pinned_fingerprints () =
  (* Byte-identity with pre-watchdog behavior: these four hex digests
     were produced by the engine before the watchdog existed (same
     scenarios, same seeds). A change here means the ?watchdog:None
     path is no longer the old engine. *)
  let big, tasks = fig5_workload 3 in
  let fp ?faults name =
    Report.fingerprint (Engine.run ?faults big (Registry.make name) tasks)
  in
  Alcotest.(check string) "plain lpst" "b8658d47b99bbf57fe724082deb231e1" (fp "lpst");
  Alcotest.(check string) "plain fifo" "3d20960712d6af977147457b07d652f0" (fp "fifo");
  Alcotest.(check string) "crash storm lpst" "b118987763130a22c1d53e880b6aa88c"
    (fp ~faults:(crash_at 30. 5) "lpst");
  let _, _, storm = storm_scenario () in
  Alcotest.(check string) "degradation storm lpst, watchdog off"
    "b8b3fc58321fc04152c1086da5b07ff3" (fp ~faults:storm "lpst")

let test_watchdog_golden_storm_rescue () =
  let big, tasks, faults = storm_scenario () in
  let lpst () = Registry.make "lpst" in
  let off = Engine.run ~faults big (lpst ()) tasks in
  let on = Engine.run ~faults ~watchdog:Watchdog.default big (lpst ()) tasks in
  let missed (r : Metrics.run) =
    List.filter_map
      (fun (o : Metrics.outcome) ->
        if o.Metrics.completed then None else Some o.Metrics.task.Task.id)
      r.Metrics.outcomes
  in
  Alcotest.(check (list int)) "the storm costs five tasks without the watchdog"
    [ 13; 21; 26; 27; 40 ] (missed off);
  Alcotest.(check int) "watchdog off never swaps" 0 off.Metrics.swaps_attempted;
  (* The acceptance criterion: tasks that miss without the watchdog
     complete on time with it. #21 and #40 have clean unused spares;
     #13, #26 and #27 are infeasible on every source set (degraded
     destination NIC or aggregate demand above residual capacity). *)
  Alcotest.(check (list int)) "only the provably infeasible tasks still miss" [ 13; 26; 27 ]
    (missed on);
  Alcotest.(check bool)
    (Printf.sprintf "strictly more on-time completions (%d vs %d)" (Metrics.completed on)
       (Metrics.completed off))
    true
    (Metrics.completed on > Metrics.completed off);
  Alcotest.(check bool) "at least one task rescued" true (on.Metrics.tasks_rescued >= 1);
  Alcotest.(check bool) "swaps actually happened" true (on.Metrics.swaps_successful >= 1);
  Alcotest.(check int) "the doomed tasks were shed early" 3 on.Metrics.tasks_shed_early;
  Alcotest.(check bool) "shed remainder captured" true (on.Metrics.shed_volume > 0.);
  Alcotest.(check int) "still no clamping" 0 on.Metrics.clamp_events;
  (* Watchdog runs replay byte-identically, fingerprint included. *)
  let again = Engine.run ~faults ~watchdog:Watchdog.default big (lpst ()) tasks in
  Alcotest.(check string) "watchdog replay is byte-identical" (Report.fingerprint on)
    (Report.fingerprint again)

let test_watchdog_golden_swap () =
  (* Source NIC drops to 10% at t=0.3 with the deadline at 2 s: LPST
     evicts the now-infeasible flow, the watchdog hedges it onto the
     clean spare, and the restarted chunk finishes at 0.3 + 1.0. *)
  let tight =
    Task.v ~id:0 ~arrival:0. ~deadline:2. ~volume:1000. ~k:1 ~sources:[| 1; 2 |]
      ~destination:0 ()
  in
  let faults =
    Fault.plan
      [ { Fault.time = 0.3;
          kind =
            Fault.Link_degrade
              { entity = T.server_entity topo 1; factor = 0.1; duration = 10. }
        }
      ]
  in
  let run =
    Engine.run ~faults ~watchdog:Watchdog.default topo (Registry.make "lpst") [ tight ]
  in
  Alcotest.(check int) "completed" 1 (Metrics.completed run);
  let o = List.hd run.Metrics.outcomes in
  checkf "swap restarts the chunk: 0.3 + 1.0" 1.3 o.Metrics.finish_time;
  Alcotest.(check (array int)) "final source is the spare" [| 2 |] o.Metrics.sources;
  checkf "both fetches transferred" 1300. run.Metrics.transferred;
  checkf "the straggling partial fetch is waste" 300. run.Metrics.wasted;
  Alcotest.(check int) "one swap attempted" 1 run.Metrics.swaps_attempted;
  Alcotest.(check int) "one swap installed" 1 run.Metrics.swaps_successful;
  Alcotest.(check int) "the task counts as rescued" 1 run.Metrics.tasks_rescued;
  Alcotest.(check int) "nothing shed" 0 run.Metrics.tasks_shed_early;
  Alcotest.(check int) "a swap is not a fault kill" 0 run.Metrics.flows_killed;
  Alcotest.(check int) "a swap is not a re-homing" 0 run.Metrics.tasks_rehomed;
  Alcotest.(check int) "no clamping" 0 run.Metrics.clamp_events

let test_watchdog_golden_shed () =
  (* The only source's NIC drops to 1% for longer than the deadline
     window: no source set can finish, so the watchdog cancels the task
     at t=0.5 instead of letting it burn bandwidth until t=10. *)
  let faults =
    Fault.plan
      [ { Fault.time = 0.5;
          kind =
            Fault.Link_degrade
              { entity = T.server_entity topo 1; factor = 0.01; duration = 20. }
        }
      ]
  in
  let run =
    Engine.run ~faults ~watchdog:Watchdog.default topo (Registry.make "lpst")
      [ one_task ~sources:[| 1 |] () ]
  in
  Alcotest.(check int) "completed" 0 (Metrics.completed run);
  Alcotest.(check int) "shed early" 1 run.Metrics.tasks_shed_early;
  let o = List.hd run.Metrics.outcomes in
  checkf "remaining captured at the shed" 500. o.Metrics.remaining;
  checkf "failures keep the deadline as finish time" 10. o.Metrics.finish_time;
  checkf "delivered bits are the shed remainder, not waste" 500. run.Metrics.shed_volume;
  checkf "nothing else wasted" 0. run.Metrics.wasted;
  checkf "conservation" run.Metrics.transferred
    (run.Metrics.wasted +. run.Metrics.shed_volume);
  Alcotest.(check int) "no swaps burned on a hopeless task" 0 run.Metrics.swaps_successful;
  Alcotest.(check int) "a shed is not a fault loss" 0 run.Metrics.tasks_lost

let test_watchdog_without_reselect_sheds_only () =
  (* An algorithm with no reselect hook cannot hedge, but shedding does
     not need the hook. *)
  let lpst = Registry.make "lpst" in
  let frozen = { lpst with Algorithm.name = "LPST-frozen"; reselect = None } in
  let degrade factor =
    Fault.plan
      [ { Fault.time = 0.3;
          kind =
            Fault.Link_degrade
              { entity = T.server_entity topo 1; factor; duration = 20. }
        }
      ]
  in
  (* Savable-by-swap scenario: without a hook the task just misses. *)
  let tight =
    Task.v ~id:0 ~arrival:0. ~deadline:2. ~volume:1000. ~k:1 ~sources:[| 1; 2 |]
      ~destination:0 ()
  in
  let r = Engine.run ~faults:(degrade 0.1) ~watchdog:Watchdog.default topo frozen [ tight ] in
  Alcotest.(check int) "no hook, no swaps" 0 r.Metrics.swaps_attempted;
  Alcotest.(check int) "task misses" 0 (Metrics.completed r);
  (* Hopeless-on-every-source scenario: the shed path still fires. *)
  let r2 =
    Engine.run ~faults:(degrade 0.01) ~watchdog:Watchdog.default topo frozen
      [ one_task ~sources:[| 1 |] () ]
  in
  Alcotest.(check int) "shedding works without the hook" 1 r2.Metrics.tasks_shed_early

let test_watchdog_off_runs_have_zero_watchdog_fields () =
  (* Every fault-free, watchdog-off golden run reports all-zero watchdog
     metrics, and the original conservation law still holds bit-for-bit. *)
  let big, tasks = fig5_workload 3 in
  List.iter
    (fun (r : Metrics.run) ->
      Alcotest.(check int) "swaps_attempted" 0 r.Metrics.swaps_attempted;
      Alcotest.(check int) "swaps_successful" 0 r.Metrics.swaps_successful;
      Alcotest.(check int) "tasks_rescued" 0 r.Metrics.tasks_rescued;
      Alcotest.(check int) "tasks_shed_early" 0 r.Metrics.tasks_shed_early;
      checkf "shed_volume" 0. r.Metrics.shed_volume;
      let useful =
        List.fold_left
          (fun acc (o : Metrics.outcome) ->
            if o.Metrics.completed then acc +. Task.total_volume o.Metrics.task else acc)
          0. r.Metrics.outcomes
      in
      Alcotest.(check (float (1e-6 *. Float.max 1. r.Metrics.transferred +. 1e-3)))
        "original conservation law" r.Metrics.transferred (useful +. r.Metrics.wasted))
    (List.map (fun n -> Engine.run big (Registry.make n) tasks) [ "lpst"; "fifo" ]
    @ [ Engine.run topo (Registry.make "lpst") [ one_task () ] ])

(* ---- Invalid_selection ---- *)

let silent_alg select =
  { Algorithm.name = "broken";
    select_sources = select;
    allocate = (fun _ -> []);
    abandon_expired = false;
    reselect = None
  }

let expect_invalid ~task ~server f =
  match f () with
  | (_ : Metrics.run) -> Alcotest.fail "expected Invalid_selection"
  | exception Engine.Invalid_selection i ->
    Alcotest.(check int) "task id" task i.task;
    Alcotest.(check int) "server" server i.server

let test_invalid_selection () =
  let two = Task.v ~id:7 ~arrival:0. ~deadline:10. ~volume:100. ~k:2 ~sources:[| 1; 2; 3 |]
      ~destination:0 () in
  (* wrong count *)
  expect_invalid ~task:7 ~server:(-1) (fun () ->
      Engine.run topo (silent_alg (fun _ _ -> [||])) [ two ]);
  (* duplicate *)
  expect_invalid ~task:7 ~server:1 (fun () ->
      Engine.run topo (silent_alg (fun _ _ -> [| 1; 1 |])) [ two ]);
  (* non-candidate *)
  expect_invalid ~task:7 ~server:0 (fun () ->
      Engine.run topo (silent_alg (fun _ _ -> [| 0; 1 |])) [ two ])

let test_invalid_reselection () =
  (* A reselect hook that hands back the dead server is caught. *)
  let lpst = Registry.make "lpst" in
  let bad =
    { lpst with
      Algorithm.name = "bad-reselect";
      reselect = Some (fun _ _ ~eligible:_ ~need ~remaining:_ -> Array.make need 1)
    }
  in
  expect_invalid ~task:0 ~server:1 (fun () ->
      Engine.run ~faults:(crash_at 0.5 1) topo bad [ one_task () ])

let test_injected_id_collision_rejected () =
  let hook ~now ~server:_ =
    [ Task.v ~id:0 ~arrival:now ~deadline:(now +. 10.) ~volume:10. ~k:1 ~sources:[| 2 |]
        ~destination:0 ()
    ]
  in
  match Engine.run ~faults:(crash_at 0.5 1) ~on_failure:hook topo (Registry.make "lpst")
          [ one_task () ]
  with
  | (_ : Metrics.run) -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---- closed-loop repair ---- *)

let repair_fixture () =
  let big = T.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let cluster = Cluster.create big in
  let g = Prng.create 5 in
  let files = List.init 40 (fun _ -> Cluster.add_file cluster g ~n:9 ~k:6 ~chunk_volume:512. ()) in
  (big, cluster, files)

let test_closed_loop_repair () =
  let big, cluster, files = repair_fixture () in
  (* The chunks server 3 holds, which its crash loses. *)
  let lost =
    List.length
      (List.concat_map
         (fun id -> List.filter (( = ) 3) (Array.to_list (Cluster.file cluster id).Cluster.locations))
         files)
  in
  Alcotest.(check bool) "fixture stores chunks on the victim" true (lost > 0);
  let repair =
    Fault.closed_loop_repair (Prng.create 17) cluster ~deadline_factor:10. ~first_id:1000
  in
  (* No background workload at all: the crash itself generates the
     repair traffic, and the engine keeps running to drain it. *)
  let run = Engine.run ~faults:(crash_at 10. 3) ~on_failure:repair big (Registry.make "lpst") [] in
  Alcotest.(check int) "one repair task per recoverable lost chunk" lost
    (List.length run.Metrics.outcomes);
  Alcotest.(check int) "idle cluster repairs everything in time" lost (Metrics.completed run);
  List.iter
    (fun (o : Metrics.outcome) ->
      let t = o.Metrics.task in
      Alcotest.(check bool) "repair reads only survivors" false
        (Array.exists (( = ) 3) t.Task.sources || t.Task.destination = 3);
      Alcotest.(check bool) "repair ids start at first_id" true (t.Task.id >= 1000))
    run.Metrics.outcomes

let test_closed_loop_repair_deterministic () =
  let fingerprint () =
    let big, cluster, _ = repair_fixture () in
    let repair =
      Fault.closed_loop_repair (Prng.create 17) cluster ~deadline_factor:10. ~first_id:1000
    in
    Report.fingerprint
      (Engine.run ~faults:(crash_at 10. 3) ~on_failure:repair big (Registry.make "lpst") [])
  in
  Alcotest.(check string) "replay is byte-identical" (fingerprint ()) (fingerprint ())

(* ---- the chaos campaign ---- *)

let chaos_algorithms = [ "fifo"; "disfifo"; "edf"; "disedf"; "lstf"; "lpall"; "lpst" ]

(* Scenario, workload and fault plan all derived from one integer. *)
let chaos_scenario seed =
  let g = Prng.create seed in
  let topo =
    T.two_tier
      ~racks:(2 + Prng.int g 2)
      ~servers_per_rack:(4 + Prng.int g 5)
      ~cst:(200. +. Prng.float g 800.)
      ~cta:(600. +. Prng.float g 2000.)
  in
  let code = if T.servers topo > 9 then (9, 6) else (4, 2) in
  let tasks =
    Generator.generate g topo
      { Generator.num_tasks = 5 + Prng.int g 20;
        arrival_rate = 0.1 +. Prng.float g 1.0;
        chunk_size_mb = 4. +. Prng.float g 48.;
        code_mix = [ (code, 1.) ];
        deadline_factor = 3. +. Prng.float g 8.;
        deadline_jitter = Prng.float g 0.5;
        placement = S3_storage.Placement.Flat_uniform
      }
  in
  let horizon =
    List.fold_left (fun acc (t : Task.t) -> max acc t.Task.deadline) 10. tasks
  in
  let faults =
    Fault.random (Prng.create (seed + 1)) topo ~horizon
      ~crashes:(1 + Prng.int g 3)
      ~rack_outages:(Prng.int g 2)
      ~degradations:(1 + Prng.int g 3)
      ()
  in
  (topo, tasks, faults)

(* Run one algorithm under one fault plan and check every invariant the
   chaos suite guarantees; returns None on success, Some reason on the
   first violation. With [?watchdog] the same invariants must hold under
   supervision (the on_event hook also sees every swapped-in flow, so
   "no live flow reads a crashed server" covers watchdog swaps), plus
   the budget bound and the extended conservation law. *)
let chaos_violation ?watchdog name seed =
  let topo, tasks, faults = chaos_scenario seed in
  let replay = Fault.start topo faults in
  let last_t = ref neg_infinity in
  let bad = ref None in
  let note reason = if !bad = None then bad := Some reason in
  let hook now (view : Problem.view) _rates =
    if now < !last_t -. 1e-9 then note "clock went backwards";
    last_t := max !last_t now;
    ignore (Fault.advance replay now);
    List.iter
      (fun (f : Problem.flow) ->
        if Fault.ever_crashed replay f.Problem.source then
          note "live flow reads a crashed server";
        if Fault.dead replay f.Problem.task.Task.destination then
          note "live flow writes a dead server")
      (Lazy.force view.Problem.flows)
  in
  let run = Engine.run ~on_event:hook ~faults ?watchdog topo (Registry.make name) tasks in
  if run.Metrics.clamp_events <> 0 then note "capacity clamped";
  if List.length run.Metrics.outcomes <> List.length tasks then note "outcome count";
  List.iter
    (fun (o : Metrics.outcome) ->
      if o.Metrics.completed && o.Metrics.finish_time > o.Metrics.task.Task.deadline +. 1e-6
      then note "completion after deadline";
      if (not o.Metrics.completed) && o.Metrics.remaining <= 0. then
        note "failure strands no volume";
      if o.Metrics.remaining > Task.total_volume o.Metrics.task +. 1e-6 then
        note "remaining exceeds the task")
    run.Metrics.outcomes;
  (* Conservation: every megabit moved is either part of a task that
     completed on time, accounted as waste, or the delivered remainder
     of an early-shed task (always 0 without the watchdog). *)
  let useful =
    List.fold_left
      (fun acc (o : Metrics.outcome) ->
        if o.Metrics.completed then acc +. Task.total_volume o.Metrics.task else acc)
      0. run.Metrics.outcomes
  in
  let drift =
    Float.abs
      (run.Metrics.transferred -. (useful +. run.Metrics.wasted +. run.Metrics.shed_volume))
  in
  if drift > 1e-6 *. Float.max 1. run.Metrics.transferred +. 1e-3 then
    note
      (Printf.sprintf "conservation: moved %.3f <> useful %.3f + wasted %.3f + shed %.3f"
         run.Metrics.transferred useful run.Metrics.wasted run.Metrics.shed_volume);
  if run.Metrics.flows_killed < run.Metrics.tasks_rehomed then
    note "re-homing without a killed flow";
  (match watchdog with
   | None ->
     if
       run.Metrics.swaps_attempted + run.Metrics.swaps_successful + run.Metrics.tasks_rescued
       + run.Metrics.tasks_shed_early
       > 0
       || run.Metrics.shed_volume > 0.
     then note "watchdog counters nonzero with the watchdog off"
   | Some (cfg : Watchdog.config) ->
     (* The per-task budget bounds total swaps; rescues and sheds are
        disjoint task sets, each bounded by the task count. *)
     let n = List.length run.Metrics.outcomes in
     if run.Metrics.swaps_successful > cfg.Watchdog.max_swaps * n then
       note "backoff budget exceeded";
     if run.Metrics.swaps_successful > run.Metrics.swaps_attempted then
       note "more swaps succeeded than were attempted";
     if run.Metrics.tasks_rescued + run.Metrics.tasks_shed_early > n then
       note "rescued + shed exceed the task count";
     if run.Metrics.shed_volume > 0. && run.Metrics.tasks_shed_early = 0 then
       note "shed volume without a shed task");
  !bad

(* A random-but-seeded watchdog config, so every chaos case exercises a
   different slack / budget / backoff corner. *)
let chaos_watchdog seed =
  let g = Prng.create (seed + 2) in
  Watchdog.v ~slack:(Prng.float g 2.) ~max_swaps:(Prng.int g 5)
    ~backoff:(0.25 +. Prng.float g 2.) ()

let event_equal (a : Fault.event) (b : Fault.event) =
  Float.equal a.Fault.time b.Fault.time
  &&
  match (a.Fault.kind, b.Fault.kind) with
  | Fault.Server_crash x, Fault.Server_crash y
  | Fault.Server_recover x, Fault.Server_recover y
  | Fault.Rack_outage x, Fault.Rack_outage y -> x = y
  | ( Fault.Link_degrade { entity = e1; factor = f1; duration = d1 },
      Fault.Link_degrade { entity = e2; factor = f2; duration = d2 } ) ->
    e1 = e2 && Float.equal f1 f2 && Float.equal d1 d2
  | _ -> false

let qcheck =
  let open QCheck in
  let seed = int_range 0 1_000_000 in
  let alg_and_seed = pair (oneofl chaos_algorithms) seed in
  [ Test.make ~name:"cursor: accessors match the list model bit for bit" ~count:100 seed
      (fun seed ->
        match accessor_mismatch seed with
        | None -> true
        | Some m -> Test.fail_reportf "seed %d: %s" seed m);
    Test.make ~name:"chaos: all invariants hold for every algorithm" ~count:240 alg_and_seed
      (fun (name, seed) ->
        match chaos_violation name seed with
        | None -> true
        | Some reason -> Test.fail_reportf "%s, seed %d: %s" name seed reason);
    Test.make ~name:"chaos: equal seeds replay byte-identically" ~count:40 alg_and_seed
      (fun (name, seed) ->
        let once () =
          let topo, tasks, faults = chaos_scenario seed in
          Report.fingerprint (Engine.run ~faults topo (Registry.make name) tasks)
        in
        String.equal (once ()) (once ()));
    Test.make ~name:"chaos: random plans round-trip through their spec" ~count:60 seed
      (fun seed ->
        let g = Prng.create seed in
        let plan =
          Fault.random g topo ~horizon:(1. +. Prng.float g 500.) ~crashes:(Prng.int g 4)
            ~rack_outages:(Prng.int g 3) ~degradations:(Prng.int g 4) ()
        in
        match Fault.of_string (Fault.to_string plan) with
        | Ok again -> String.equal (Fault.to_string plan) (Fault.to_string again)
        | Error e -> Test.fail_reportf "seed %d: %s" seed e);
    Test.make ~name:"chaos: specs round-trip to bit-identical events" ~count:60 seed
      (fun seed ->
        (* Stronger than string stability: the parsed-back plan must
           reproduce every float bit-for-bit, including times like
           1/3 * horizon that %g used to truncate. *)
        let g = Prng.create seed in
        let plan =
          Fault.random g topo ~horizon:(1. +. Prng.float g 500.) ~crashes:(Prng.int g 4)
            ~rack_outages:(Prng.int g 3) ~degradations:(Prng.int g 4) ()
        in
        match Fault.of_string (Fault.to_string plan) with
        | Ok again -> List.equal event_equal (Fault.events plan) (Fault.events again)
        | Error e -> Test.fail_reportf "seed %d: %s" seed e);
    Test.make ~name:"chaos: watchdog keeps every invariant" ~count:120 alg_and_seed
      (fun (name, seed) ->
        match chaos_violation ~watchdog:(chaos_watchdog seed) name seed with
        | None -> true
        | Some reason -> Test.fail_reportf "%s, seed %d (watchdog): %s" name seed reason);
    Test.make ~name:"chaos: watchdog runs replay byte-identically" ~count:30 alg_and_seed
      (fun (name, seed) ->
        let once () =
          let topo, tasks, faults = chaos_scenario seed in
          Report.fingerprint
            (Engine.run ~faults ~watchdog:(chaos_watchdog seed) topo (Registry.make name)
               tasks)
        in
        String.equal (once ()) (once ()))
  ]

(* ---- determinism under parallel sweeps ---- *)

let test_parallel_chaos_determinism () =
  let job idx =
    let name = List.nth chaos_algorithms (idx mod List.length chaos_algorithms) in
    let topo, tasks, faults = chaos_scenario (1000 + idx) in
    Report.fingerprint (Engine.run ~faults topo (Registry.make name) tasks)
  in
  let seq = Sweep.map ~domains:1 12 job in
  let par = Sweep.map ~domains:4 12 job in
  Alcotest.(check (array string)) "4-domain sweep equals sequential" seq par

let test_parallel_watchdog_determinism () =
  (* Supervised runs must stay deterministic under multicore sweeps
     too — the watchdog state is all per-run, nothing shared. *)
  let job idx =
    let name = List.nth chaos_algorithms (idx mod List.length chaos_algorithms) in
    let topo, tasks, faults = chaos_scenario (2000 + idx) in
    Report.fingerprint
      (Engine.run ~faults ~watchdog:(chaos_watchdog idx) topo (Registry.make name) tasks)
  in
  let seq = Sweep.map ~domains:1 8 job in
  let par = Sweep.map ~domains:4 8 job in
  Alcotest.(check (array string)) "4-domain watchdog sweep equals sequential" seq par

let tests =
  ( "fault",
    [ tc "spec round trip" `Quick test_spec_roundtrip;
      tc "spec rejects malformed" `Quick test_spec_rejects_malformed;
      tc "plan validation" `Quick test_plan_validation;
      tc "cursor semantics" `Quick test_cursor_semantics;
      tc "simultaneous crash/recover" `Quick test_simultaneous_crash_recover_plan_order;
      tc "degradations compound" `Quick test_degradations_compound;
      tc "random plan deterministic" `Quick test_random_plan_deterministic;
      tc "accessors match the list model" `Quick test_accessors_match_model;
      tc "golden: re-home" `Quick test_golden_rehome;
      tc "golden: unrecoverable" `Quick test_golden_unrecoverable;
      tc "golden: destination crash" `Quick test_destination_crash_loses_task;
      tc "golden: dead destination at arrival" `Quick test_dead_destination_at_arrival;
      tc "golden: recovered server" `Quick test_recovered_server_is_no_source;
      tc "golden: degradation" `Quick test_golden_degradation;
      tc "empty plan is identity" `Quick test_empty_plan_is_identity;
      tc "re-homing beats no reselection" `Quick test_rehoming_beats_no_reselection;
      tc "watchdog spec round trip" `Quick test_watchdog_spec_roundtrip;
      tc "watchdog off: pinned fingerprints" `Quick test_watchdog_off_pinned_fingerprints;
      tc "watchdog golden: storm rescue" `Quick test_watchdog_golden_storm_rescue;
      tc "watchdog golden: hedged swap" `Quick test_watchdog_golden_swap;
      tc "watchdog golden: early shed" `Quick test_watchdog_golden_shed;
      tc "watchdog without reselect" `Quick test_watchdog_without_reselect_sheds_only;
      tc "watchdog off: zero fields" `Quick test_watchdog_off_runs_have_zero_watchdog_fields;
      tc "invalid selection" `Quick test_invalid_selection;
      tc "invalid reselection" `Quick test_invalid_reselection;
      tc "injected id collision" `Quick test_injected_id_collision_rejected;
      tc "closed-loop repair" `Quick test_closed_loop_repair;
      tc "closed-loop repair deterministic" `Quick test_closed_loop_repair_deterministic;
      tc "parallel chaos determinism" `Quick test_parallel_chaos_determinism;
      tc "parallel watchdog determinism" `Quick test_parallel_watchdog_determinism
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
