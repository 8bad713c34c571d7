(* Engine golden corpus and incremental-structure checks.

   The engine runs off per-entity flow buckets, dirty-set clamping
   and a lazy Phase I congestion accessor, and
   the LP-based algorithms solve block-decomposed LPs. All of it
   replaced a full-rescan engine and a one-tableau LP, and promised
   bit-identical runs, only faster. Before the full-rescan engine was
   deleted, a fixed corpus of 340 random scenarios ran through both
   engines; they agreed, and each case's report fingerprint and digest
   of every per-event rate vector is frozen in engine_corpus.expected.
   A third kind of 120 recovery scenarios (detector, retry with or
   without resume, optional watchdog) was frozen from the single engine
   path before its repeated retire, check and re-home code was folded
   into one implementation each. The corpus tests replay the cases and
   name the first one that drifts. Scenarios draw random topologies
   (two-tier and leaf-spine), workloads, foreground traffic, fault
   plans, detectors, retry policies and watchdog configs, so every
   index maintenance site (spawn, kill, re-home, hedged swap, shed,
   completion, expiry) is crossed many times.

   The eager congestion scan survives as an oracle
   (congestion_oracle.ml): at every event and every Phase I call the
   engine's cached per-entity load must equal, float for float, the
   factors [Congestion_oracle.of_view] computes from the flow list. A
   multicore sweep replay checks the per-run structures stay per-run
   under domains, and the LP half pins the solver contract directly:
   block-split solves equal one-tableau solves bit-for-bit over drifting
   problem streams. *)

module T = S3_net.Topology
module Task = S3_workload.Task
module Generator = S3_workload.Generator
module Registry = S3_core.Registry
module Problem = S3_core.Problem
module Algorithm = S3_core.Algorithm
module Congestion = S3_core.Congestion
module Engine = S3_sim.Engine
module Foreground = S3_sim.Foreground
module Report = S3_sim.Report
module Watchdog = S3_sim.Watchdog
module Retry = S3_sim.Retry
module Fault = S3_fault.Fault
module Detector = S3_fault.Detector
module Prng = S3_util.Prng
module Sweep = S3_par.Sweep
module Lp = S3_lp.Lp
module Simplex = S3_lp.Simplex

let tc = Alcotest.test_case

(* ---- scenario generator ---- *)

let algorithms = [ "lpst"; "lpall"; "edf-cong"; "edf"; "fifo"; "lstf" ]

let scenario seed =
  let g = Prng.create seed in
  let topo =
    if Prng.bool g then
      T.two_tier
        ~racks:(2 + Prng.int g 2)
        ~servers_per_rack:(4 + Prng.int g 5)
        ~cst:(200. +. Prng.float g 800.)
        ~cta:(600. +. Prng.float g 2000.)
    else
      T.leaf_spine
        ~leaves:(2 + Prng.int g 3)
        ~spines:(1 + Prng.int g 2)
        ~servers_per_leaf:(3 + Prng.int g 4)
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
    if Prng.int g 3 = 0 then Fault.empty
    else
      Fault.random (Prng.create (seed + 1)) topo ~horizon ~crashes:(Prng.int g 3)
        ~rack_outages:(Prng.int g 2)
        ~degradations:(Prng.int g 3)
        ()
  in
  let fg = if Prng.bool g then 0. else 0.05 +. Prng.float g 0.4 in
  (topo, tasks, faults, fg)

let engine_config fg =
  { Engine.foreground = (if fg > 0. then Foreground.uniform ~max_frac:fg else Foreground.none);
    seed = 7
  }

let wd_config seed =
  let g = Prng.create (seed + 2) in
  Watchdog.v ~slack:(Prng.float g 2.) ~max_swaps:(Prng.int g 5)
    ~backoff:(0.25 +. Prng.float g 2.) ()

(* The recovery machinery on top of a [scenario]: a fault plan (drawn
   here, with at least one crash and one degradation, when the
   scenario has none), a detector in about three cases of four, a retry
   policy with resume on or off, and a watchdog in about half. *)
type recovery = {
  detector : Detector.config option;
  retry : Retry.config;
  watchdog : Watchdog.config option;
}

let recovery_scenario seed =
  let topo, tasks, faults, fg = scenario seed in
  let g = Prng.create (seed + 5) in
  let faults =
    if not (Fault.is_empty faults) then faults
    else
      let horizon =
        List.fold_left (fun acc (t : Task.t) -> max acc t.Task.deadline) 10. tasks
      in
      Fault.random g topo ~horizon ~crashes:(1 + Prng.int g 2) ~degradations:(1 + Prng.int g 2)
        ()
  in
  let detector =
    if Prng.int g 4 = 0 then None
    else
      Some
        (Detector.v ~suspect:(Prng.float g 3.) ~confirm:(0.5 +. Prng.float g 3.) ~fp:(Prng.int g 3)
           ~fp_seed:(seed + 7)
           ~fp_horizon:(10. +. Prng.float g 50.)
           ())
  in
  let retry =
    Retry.v ~retries:(Prng.int g 4)
      ~timeout:(0.1 +. Prng.float g 2.)
      ~backoff:(1. +. Prng.float g 2.)
      ~resume:(Prng.bool g) ()
  in
  let watchdog = if Prng.bool g then Some (wd_config seed) else None in
  ((topo, tasks, faults, fg), { detector; retry; watchdog })

(* One run, capturing the metrics and every per-event rate vector
   (flow id and rate, in the algorithm's own order). *)
let capture ?detector ?retry ?watchdog name (topo, tasks, faults, fg) =
  let events = ref [] in
  let hook now (_ : Problem.view) rates = events := (now, rates) :: !events in
  let run =
    Engine.run ~config:(engine_config fg) ~on_event:hook ~faults ?detector ?retry ?watchdog topo
      (Registry.make name) tasks
  in
  (run, List.rev !events)

(* Exact: every float is written in hexadecimal. *)
let rates_digest events =
  let b = Buffer.create 4096 in
  List.iter
    (fun (now, rates) ->
      Printf.bprintf b "%h|" now;
      List.iter (fun (fid, r) -> Printf.bprintf b "%d:%h;" fid r) rates;
      Buffer.add_char b '\n')
    events;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- golden corpus ---- *)

type kind = Plain | Watchdog | Recovery

type case = {
  kind : kind;
  idx : int;
  alg : string;
  seed : int;
}

let plain_cases = 220
let watchdog_cases = 120
let recovery_cases = 120

let corpus =
  let alg i = List.nth algorithms (i mod List.length algorithms) in
  let cases kind n seed0 step =
    List.init n (fun i -> { kind; idx = i; alg = alg i; seed = seed0 + (step * i) })
  in
  cases Plain plain_cases 1_000 37
  @ cases Watchdog watchdog_cases 500_000 41
  @ cases Recovery recovery_cases 900_000 43

let kind_name = function Plain -> "plain" | Watchdog -> "watchdog" | Recovery -> "recovery"

(* The case's corpus line and its run's metrics. *)
let run_case c =
  let run, events =
    match c.kind with
    | Plain -> capture c.alg (scenario c.seed)
    | Watchdog -> capture ~watchdog:(wd_config c.seed) c.alg (scenario c.seed)
    | Recovery ->
      let sc, r = recovery_scenario c.seed in
      capture ?detector:r.detector ~retry:r.retry ?watchdog:r.watchdog c.alg sc
  in
  ( Printf.sprintf "%s %d %s %d %s %s %d" (kind_name c.kind) c.idx c.alg c.seed
      (Report.fingerprint run) (rates_digest events) (List.length events),
    run )

(* Every case runs once, whichever test asks first. *)
let corpus_runs = lazy (List.map (fun c -> (c, run_case c)) corpus)

(* Expected lines keyed by "kind index". *)
let expected =
  lazy
    (let tbl = Hashtbl.create 512 in
     String.split_on_char '\n' Engine_corpus.data
     |> List.iter (fun line ->
            if line <> "" && line.[0] <> '#' then
              match String.split_on_char ' ' line with
              | k :: i :: _ -> Hashtbl.replace tbl (k ^ " " ^ i) line
              | _ -> Alcotest.failf "malformed corpus line: %S" line);
     tbl)

(* Names the first drifting case and counts the rest, and prints every
   drifted case's fresh line to the test log, so that a deliberate
   behaviour change regenerates the file from that log. *)
let check_corpus kind () =
  let drifted =
    List.filter_map
      (fun (c, (fresh, _)) ->
        if c.kind <> kind then None
        else
          match
            Hashtbl.find_opt (Lazy.force expected) (kind_name c.kind ^ " " ^ string_of_int c.idx)
          with
          | Some want when String.equal want fresh -> None
          | want -> Some (c, Option.value ~default:"(none)" want, fresh))
      (Lazy.force corpus_runs)
  in
  match drifted with
  | [] -> ()
  | (c, want, fresh) :: _ ->
    List.iter (fun (_, _, fresh) -> print_endline fresh) drifted;
    Alcotest.failf
      "%d %s case(s) drifted, fresh lines above; first: case %d (%s, seed %d)\n\
      \  expected %s\n\
      \  got      %s"
      (List.length drifted) (kind_name c.kind) c.idx c.alg c.seed want fresh

(* The corpus pins the recovery paths only if it crosses them. *)
let test_corpus_coverage () =
  let count p =
    List.length (List.filter (fun (_, (_, run)) -> p run) (Lazy.force corpus_runs))
  in
  List.iter
    (fun (what, p) -> if count p = 0 then Alcotest.failf "no corpus case has %s" what)
    S3_sim.Metrics.
      [ ("a re-home", fun r -> r.tasks_rehomed > 0);
        ("an exhausted retry budget", fun r -> r.retries_exhausted > 0);
        ("a watchdog swap", fun r -> r.swaps_successful > 0);
        ("a shed", fun r -> r.tasks_shed_early > 0);
        ("resumed bytes", fun r -> r.bytes_resumed > 0.)
      ]

(* ---- the clamp path ---- *)

(* No shipped algorithm over-allocates, so nothing above reaches the
   clamp. LPST with every rate raised by half over-commits the entities
   its LP saturates; on this scene the run also re-homes two fetches off
   a crashed server and swaps ten stragglers, so the buckets the clamp
   reads have seen appends, swap-removes and re-adds in mid-order. The
   fingerprint, per-event rate digest and event count were taken from
   the engine that kept its buckets in hash tables. *)
let greedy_lpst () =
  let lpst = Registry.make "lpst" in
  { lpst with
    Algorithm.name = "LPST x1.5";
    allocate = (fun v -> List.map (fun (id, r) -> (id, r *. 1.5)) (lpst.Algorithm.allocate v))
  }

let clamp_scene () =
  let g = Prng.create 21 in
  let topo = T.two_tier ~racks:3 ~servers_per_rack:4 ~cst:400. ~cta:1000. in
  let tasks =
    Generator.generate g topo
      { Generator.num_tasks = 12;
        arrival_rate = 0.8;
        chunk_size_mb = 32.;
        code_mix = [ ((6, 3), 1.) ];
        deadline_factor = 4.;
        deadline_jitter = 0.3;
        placement = S3_storage.Placement.Flat_uniform
      }
  in
  let crash_at = 2. +. Prng.float g 6. in
  let server = Prng.int g 12 in
  (topo, tasks, Fault.plan [ { Fault.time = crash_at; kind = Fault.Server_crash server } ])

let test_clamp_path () =
  let topo, tasks, faults = clamp_scene () in
  let events = ref [] in
  let hook now (_ : Problem.view) rates = events := (now, rates) :: !events in
  let run =
    Engine.run ~on_event:hook ~faults ~watchdog:Watchdog.default topo (greedy_lpst ()) tasks
  in
  let m = run in
  Alcotest.(check bool) "clamped" true (m.S3_sim.Metrics.clamp_events > 0);
  Alcotest.(check int) "re-homes" 2 m.S3_sim.Metrics.tasks_rehomed;
  Alcotest.(check int) "swaps" 10 m.S3_sim.Metrics.swaps_successful;
  let useful =
    List.fold_left
      (fun acc (o : S3_sim.Metrics.outcome) ->
        if o.S3_sim.Metrics.completed then acc +. Task.total_volume o.S3_sim.Metrics.task
        else acc)
      0. m.S3_sim.Metrics.outcomes
  in
  let drift =
    Float.abs
      (m.S3_sim.Metrics.transferred
      -. (useful +. m.S3_sim.Metrics.wasted +. m.S3_sim.Metrics.shed_volume))
  in
  if drift > 1e-6 *. Float.max 1. m.S3_sim.Metrics.transferred then
    Alcotest.failf "conservation: drift %h" drift;
  Alcotest.(check string) "pinned run"
    "6062b31278a835fe26ea42e6216b7c88 a7230ceb7b61fdff1f597fc1330b4404 57"
    (Printf.sprintf "%s %s %d" (Report.fingerprint run)
       (rates_digest (List.rev !events))
       (List.length !events))

(* ---- the cached congestion load, checked at every event and Phase I call ---- *)

let load_matches_scan view =
  match view.Problem.load with
  | None -> Some "view.load is None"
  | Some load ->
    let eager = Congestion_oracle.of_view { view with Problem.load = None } in
    let nent = Array.length (T.entities view.Problem.topo) in
    let rec go e =
      if e >= nent then None
      else
        let lazy_v = load e and eager_v = Congestion_oracle.factor eager e in
        if Float.equal lazy_v eager_v then go (e + 1)
        else Some (Printf.sprintf "entity %d: load %h, eager scan %h" e lazy_v eager_v)
    in
    go 0

(* Keeps the first mismatch in [failure]. *)
let check_load failure what (view : Problem.view) =
  if Option.is_none !failure then
    Option.iter
      (fun msg -> failure := Some (Printf.sprintf "%s at t=%h: %s" what view.Problem.now msg))
      (load_matches_scan view)

(* Engine views list each task's flows as one run, the runs in arrival
   order. [Problem.by_task] relies on this: it takes the runs as the
   task groups, so a task whose flows came back after another task's
   would be split into two groups. *)
let grouping_fault (view : Problem.view) =
  let seen = Hashtbl.create 64 in
  let rec go (prev : Task.t option) = function
    | [] -> None
    | (f : Problem.flow) :: rest -> (
      let t = f.Problem.task in
      match prev with
      | Some p when p.Task.id = t.Task.id -> go prev rest
      | _ ->
        if Hashtbl.mem seen t.Task.id then
          Some (Printf.sprintf "task %d's flows are not one run" t.Task.id)
        else begin
          match prev with
          | Some p when p.Task.arrival > t.Task.arrival ->
            Some (Printf.sprintf "task %d listed before earlier task %d" p.Task.id t.Task.id)
          | _ ->
            Hashtbl.replace seen t.Task.id ();
            go (Some t) rest
        end)
  in
  go None (Lazy.force view.Problem.flows)

(* The engine caches each entity's load within an instant, so the check
   runs where Phase I reads it: every selection and re-selection first
   compares the view's load with the eager scan, then delegates. Probing
   every entity also fills the whole cache, so a wrong append or a
   missed invalidation later in the same instant shows at the next
   call. Every allocate also checks the view's flow grouping. *)
let checked_phase1 failure (alg : Algorithm.t) =
  let check = check_load failure in
  { alg with
    Algorithm.select_sources =
      (fun v t ->
        check "select" v;
        alg.Algorithm.select_sources v t);
    allocate =
      (fun v ->
        (if Option.is_none !failure then
           Option.iter
             (fun msg -> failure := Some (Printf.sprintf "allocate at t=%h: %s" v.Problem.now msg))
             (grouping_fault v));
        alg.Algorithm.allocate v);
    reselect =
      Option.map
        (fun r v t ~eligible ~need ~remaining ->
          check "reselect" v;
          r v t ~eligible ~need ~remaining)
        alg.Algorithm.reselect
  }

let qcheck_load =
  let open QCheck in
  Test.make ~name:"load accessor == eager congestion scan at every event" ~count:150
    (triple (oneofl algorithms) (int_range 0 1_000_000) bool)
    (fun (name, seed, with_wd) ->
      let topo, tasks, faults, fg = scenario seed in
      let watchdog = if with_wd then Some (wd_config seed) else None in
      let failure = ref None in
      let hook _ view _ = check_load failure "event" view in
      ignore
        (Engine.run ~config:(engine_config fg) ~on_event:hook ~faults ?watchdog topo
           (checked_phase1 failure (Registry.make name))
           tasks);
      match !failure with
      | None -> true
      | Some msg -> Test.fail_reportf "%s, seed %d: %s" name seed msg)

(* Same-instant bursts on a leaf-spine: each task's destination and six
   candidates share one leaf, and a burst arrives at t=0 with a second
   one later. Chunk sizes and deadlines are random, so the LRBs summed
   on an entity differ in their low bits and the fold order shows. With
   [crash] one server dies mid-run (crash re-homes); otherwise one or
   two NICs drop to zero capacity, stalling flows until the retry
   policy re-homes them. *)
let burst_scenario ~crash seed =
  let g = Prng.create seed in
  let leaves = 2 + Prng.int g 3 and per_leaf = 7 + Prng.int g 3 in
  let topo =
    T.leaf_spine ~leaves ~spines:(1 + Prng.int g 2) ~servers_per_leaf:per_leaf
      ~cst:(200. +. Prng.float g 800.)
      ~cta:(600. +. Prng.float g 2000.)
  in
  let second = 1. +. Prng.float g 4. in
  let tasks =
    List.init
      (10 + Prng.int g 30)
      (fun id ->
        let base = Prng.int g leaves * per_leaf in
        let members = Array.init per_leaf (fun j -> base + j) in
        Prng.shuffle g members;
        let arrival = if Prng.int g 3 = 0 then second else 0. in
        Task.v ~id ~arrival
          ~deadline:(arrival +. 4. +. Prng.float g 20.)
          ~volume:(20. +. Prng.float g 300.)
          ~k:4 ~sources:(Array.sub members 1 6) ~destination:members.(0) ())
  in
  let server () = Prng.int g (T.servers topo) in
  let faults =
    if crash then
      Fault.plan [ { Fault.time = 0.5 +. Prng.float g 3.; kind = Fault.Server_crash (server ()) } ]
    else
      Fault.plan
        (List.init
           (1 + Prng.int g 2)
           (fun _ ->
             { Fault.time = Prng.float g 2.;
               kind =
                 Fault.Link_degrade
                   { entity = T.server_entity topo (server ());
                     factor = 0.;
                     duration = 5. +. Prng.float g 20.
                   }
             }))
  in
  (topo, tasks, faults)

(* Fixed bursts in three families — crash re-homes, retry re-homes, and
   crashes under the watchdog (hedged swaps) — each required to
   actually exercise its replacement path. *)
let test_phase1_cache () =
  let failure = ref None in
  let crash_rehomes = ref 0 and retry_rehomes = ref 0 and swaps = ref 0 in
  for i = 0 to 35 do
    let seed = 7_000 + i in
    let name = List.nth algorithms (i mod List.length algorithms) in
    let family = i mod 3 in
    let topo, tasks, faults = burst_scenario ~crash:(family <> 1) seed in
    let retry = if family = 1 then Some (Retry.v ~retries:(i mod 2) ~timeout:0.5 ()) else None in
    let watchdog = if family = 2 then Some (wd_config seed) else None in
    let run =
      Engine.run ~faults ?retry ?watchdog topo (checked_phase1 failure (Registry.make name)) tasks
    in
    (match family with
     | 0 -> crash_rehomes := !crash_rehomes + run.S3_sim.Metrics.tasks_rehomed
     | 1 -> retry_rehomes := !retry_rehomes + run.S3_sim.Metrics.tasks_rehomed
     | _ -> swaps := !swaps + run.S3_sim.Metrics.swaps_successful);
    Option.iter (fun msg -> Alcotest.failf "%s, seed %d: %s" name seed msg) !failure
  done;
  List.iter
    (fun (what, n) -> if n = 0 then Alcotest.failf "no %s exercised" what)
    [ ("crash re-homes", !crash_rehomes); ("retry re-homes", !retry_rehomes);
      ("watchdog swaps", !swaps) ]

(* ---- multicore sweep replay ---- *)

let test_sweep_replay () =
  let job idx =
    let name = List.nth algorithms (idx mod List.length algorithms) in
    Report.fingerprint (fst (capture ~watchdog:(wd_config idx) name (scenario (3000 + idx))))
  in
  let seq = Sweep.map ~domains:1 12 job in
  let par = Sweep.map ~domains:4 12 job in
  Alcotest.(check (array string)) "4-domain sweep equals sequential" seq par

(* ---- the lazy congestion accessor, in isolation ---- *)

let test_congestion_accessor () =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:4 ~cst:500. ~cta:1500. in
  let g = Prng.create 42 in
  let tasks =
    Generator.generate g topo
      { Generator.num_tasks = 8;
        arrival_rate = 2.;
        chunk_size_mb = 16.;
        code_mix = [ ((4, 2), 1.) ];
        deadline_factor = 6.;
        deadline_jitter = 0.2;
        placement = S3_storage.Placement.Flat_uniform
      }
  in
  let flows =
    List.concat_map
      (fun (t : Task.t) ->
        List.mapi
          (fun i s ->
            { Problem.flow_id = (t.Task.id * 16) + i;
              task = t;
              source = s;
              remaining = t.Task.volume
            })
          (Array.to_list t.Task.sources |> List.filteri (fun i _ -> i < t.Task.k)))
      tasks
  in
  let eager =
    { Problem.now = 1.;
      topo;
      flows = lazy flows;
      available = (fun e -> (T.entity topo e).T.capacity);
      load = None
    }
  in
  (* The reference accessor: exactly the eager per-entity sums. *)
  let eager_table = Congestion_oracle.of_view eager in
  let lazy_view = { eager with Problem.load = Some (Congestion_oracle.factor eager_table) } in
  List.iter
    (fun (t : Task.t) ->
      let a = Congestion.select_least_congested eager t in
      let b = Congestion.select_least_congested lazy_view t in
      Alcotest.(check (array int))
        (Printf.sprintf "task %d selects identically" t.Task.id)
        a b;
      Alcotest.(check (array int))
        (Printf.sprintf "task %d selects as the oracle" t.Task.id)
        (Congestion_oracle.select_least_congested eager t)
        a)
    tasks

(* Phase I against the hash-table oracle on random views: random
   topologies, flows at random fractions of their volume (some past
   their deadline at the view's clock), and every generated task as the
   one to place, once from the flow list and once through a [load]
   accessor holding random per-entity values. *)
let qcheck_phase1 =
  let open QCheck in
  Test.make ~name:"Phase I selection == hash-table oracle, with and without load" ~count:300
    (int_range 0 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let topo =
        match Prng.int g 3 with
        | 0 -> T.two_tier ~racks:(2 + Prng.int g 3) ~servers_per_rack:(4 + Prng.int g 5)
                 ~cst:500. ~cta:1500.
        | 1 -> T.leaf_spine ~leaves:(2 + Prng.int g 3) ~spines:(1 + Prng.int g 3)
                 ~servers_per_leaf:(4 + Prng.int g 4) ~cst:500. ~cta:1500.
        | _ -> T.fat_tree ~k:4 ~cst:500. ~cta:1500.
      in
      let code = if T.servers topo > 9 then (9, 6) else (4, 2) in
      let tasks =
        Generator.generate g topo
          { Generator.num_tasks = 1 + Prng.int g 30;
            arrival_rate = 0.2 +. Prng.float g 3.;
            chunk_size_mb = 4. +. Prng.float g 60.;
            code_mix = [ (code, 1.) ];
            deadline_factor = 2. +. Prng.float g 8.;
            deadline_jitter = Prng.float g 0.5;
            placement = S3_storage.Placement.Flat_uniform
          }
      in
      let flows =
        List.concat_map
          (fun (t : Task.t) ->
            List.init t.Task.k (fun i ->
                { Problem.flow_id = (t.Task.id * 16) + i;
                  task = t;
                  source = t.Task.sources.(i);
                  remaining = t.Task.volume *. Prng.float g 1.
                }))
          tasks
      in
      let nent = Array.length (T.entities topo) in
      let loads = Array.init nent (fun _ -> if Prng.bool g then 0. else Prng.float g 400.) in
      let plain =
        { Problem.now = Prng.float g 20.;
          topo;
          flows = lazy flows;
          available = (fun e -> (T.entity topo e).T.capacity);
          load = None
        }
      in
      let loaded = { plain with Problem.load = Some (fun e -> loads.(e)) } in
      List.for_all
        (fun (t : Task.t) ->
          List.for_all
            (fun (what, v) ->
              let got = Congestion.select_least_congested v t
              and want = Congestion_oracle.select_least_congested v t in
              got = want
              || Test.fail_reportf "seed %d, task %d, %s: [%s] <> oracle [%s]" seed t.Task.id
                   what
                   (String.concat ";" (Array.to_list (Array.map string_of_int got)))
                   (String.concat ";" (Array.to_list (Array.map string_of_int want))))
            [ ("flow list", plain); ("load", loaded) ])
        tasks)

(* ---- the LP solve path against a one-tableau reference ---- *)

(* A random block-structured packing problem, plus a drift step that
   perturbs bounds/lowers (the warm start replays, or bails in some
   block) or appends a variable to one block (structure change: the
   warm start does not apply). *)
let gen_blocks g =
  let blocks = 1 + Prng.int g 4 in
  let rows = ref [] in
  let nvars = ref 0 in
  for _ = 0 to blocks - 1 do
    let nv = 1 + Prng.int g 4 in
    let base = !nvars in
    nvars := !nvars + nv;
    let nr = 1 + Prng.int g 3 in
    for _ = 0 to nr - 1 do
      let members =
        List.init nv (fun j -> base + j) |> List.filter (fun _ -> Prng.int g 4 > 0)
      in
      let members = if members = [] then [ base ] else members in
      let coeffs = List.map (fun j -> (j, 1.)) members in
      rows := { Lp.coeffs; bound = 5. +. Prng.float g 50. } :: !rows
    done
  done;
  let n = !nvars in
  let lower =
    Array.init n (fun _ -> if Prng.int g 3 = 0 then Prng.float g 2. else 0.)
  in
  Lp.make ~nvars:n ~objective:(Array.make n 1.) ~lower (List.rev !rows)

let drift g (p : Lp.problem) =
  if Prng.int g 4 = 0 then begin
    (* structure change: append one variable to the last block's rows *)
    let n = p.Lp.nvars in
    let last = p.Lp.nrows - 1 in
    Lp.make ~nvars:(n + 1)
      ~objective:(Array.make (n + 1) 1.)
      ~lower:(Array.append p.Lp.lower [| 0. |])
      (List.mapi
         (fun i (c : Lp.constr) ->
           if i = last then { c with Lp.coeffs = (n, 1.) :: c.Lp.coeffs } else c)
         (Lp_check.constraints p))
  end
  else
    Lp.make ~nvars:p.Lp.nvars ~objective:p.Lp.objective
      ~lower:(Array.map (fun l -> max 0. (l +. Prng.float g 0.5 -. 0.25)) p.Lp.lower)
      (List.map
         (fun (c : Lp.constr) ->
           { c with Lp.bound = max 0.5 (c.Lp.bound +. Prng.float g 10. -. 5.) })
         (Lp_check.constraints p))

(* The reference: the whole LP on one tableau, under the exact-repeat
   memo and the positional-prefix warm start of [Lp.solve ~state]. It
   is the solve path before the block split. A warm basis that does
   not replay makes [Sparse_simplex.maximize_sparse] solve the whole tableau
   cold, which is what the block split's all-or-nothing bail must
   reproduce. *)
type reference = {
  ws : Simplex.workspace;
  mutable last : (Lp.problem * int array option * Lp.solution) option;
}

let same_row (a : Lp.constr) (b : Lp.constr) =
  List.equal (fun (i, x) (j, y) -> i = j && Float.equal x y) a.Lp.coeffs b.Lp.coeffs

let floats_equal a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

let reference_solve r (p : Lp.problem) =
  let cons = Array.of_list (Lp_check.constraints p) in
  match r.last with
  | Some (q, _, s)
    when q.Lp.nvars = p.Lp.nvars
         && floats_equal q.Lp.objective p.Lp.objective
         && floats_equal q.Lp.lower p.Lp.lower
         && List.equal
              (fun a b -> same_row a b && Float.equal a.Lp.bound b.Lp.bound)
              (Lp_check.constraints q) (Lp_check.constraints p) ->
    Ok { s with Lp.values = Array.copy s.Lp.values }
  | last -> (
    let n = p.Lp.nvars in
    let warm =
      match last with
      | Some (q, Some basis, _) ->
        let old = Array.of_list (Lp_check.constraints q) and pn = q.Lp.nvars in
        let pm = Array.length old in
        if n >= pn && Array.length cons >= pm
           && Array.for_all2 same_row old (Array.sub cons 0 pm)
        then
          Some
            (Array.init (Array.length cons) (fun i ->
                 if i >= pm then n + i
                 else if basis.(i) < pn then basis.(i)
                 else n + (basis.(i) - pn)))
        else None
      | _ -> None
    in
    let rhs =
      Array.map
        (fun (c : Lp.constr) ->
          c.Lp.bound
          -. List.fold_left (fun acc (j, a) -> acc +. (a *. p.Lp.lower.(j))) 0. c.Lp.coeffs)
        cons
    in
    let rows = Array.map (fun (c : Lp.constr) -> c.Lp.coeffs) cons in
    match Sparse_simplex.maximize_sparse ~ws:r.ws ?warm ~obj:p.Lp.objective ~rows ~rhs () with
    | Ok (y, basis) ->
      let values = Array.mapi (fun j l -> l +. y.(j)) p.Lp.lower in
      let s = { Lp.values; objective_value = Lp_check.objective_of p values } in
      r.last <- Some (p, basis, s);
      Ok { s with Lp.values = Array.copy values }
    | Error e ->
      r.last <- None;
      Error (match e with `Infeasible -> Lp.Infeasible | `Unbounded -> Lp.Unbounded))

(* One drifting stream through [Lp.solve ~state] and through the
   reference; the first step where a value, the objective or the error
   differs, if any. *)
let lp_stream_mismatch seed =
  let g = Prng.create seed in
  let st = Lp.create_state () in
  let r = { ws = Simplex.create_workspace (); last = None } in
  let p = ref (gen_blocks g) in
  let steps = 3 + Prng.int g 6 in
  let rec go step =
    if step = steps then None
    else begin
      let mismatch =
        match (reference_solve r !p, Lp.solve ~state:st !p) with
        | Ok a, Ok b ->
          if not (Float.equal a.Lp.objective_value b.Lp.objective_value) then
            Some
              (Printf.sprintf "objective %.17g vs %.17g" a.Lp.objective_value
                 b.Lp.objective_value)
          else
            Array.to_seqi a.Lp.values
            |> Seq.find_map (fun (j, v) ->
                   if Float.equal v b.Lp.values.(j) then None
                   else Some (Printf.sprintf "x%d = %.17g vs %.17g" j v b.Lp.values.(j)))
        | Error ea, Error eb ->
          if ea = eb then None
          else
            Some
              (Format.asprintf "different errors (reference %a, blocks %a)" Lp_check.pp_error ea
                 Lp_check.pp_error eb)
        | Ok _, Error _ | Error _, Ok _ -> Some "one path failed, the other solved"
      in
      match mismatch with
      | Some m -> Some (Printf.sprintf "seed %d step %d: %s" seed step m)
      | None ->
        p := drift g !p;
        go (step + 1)
    end
  in
  go 0

(* The reference is the former plain path and the block split the
   former keyed one, hence the name. *)
let qcheck_lp =
  let open QCheck in
  let seed = int_range 0 1_000_000 in
  Test.make ~name:"keyed LP stream == plain LP stream, bit for bit" ~count:2000 seed
    (fun seed ->
      match lp_stream_mismatch seed with
      | None -> true
      | Some m -> Test.fail_report m)

(* A stream in which one block's warm replay bails while another's
   installs: re-solving only the bailing block cold, instead of every
   block, ends on a different vertex. Checked before the random
   streams, so that this case never depends on the QCheck seed. *)
let pinned_lp_stream = 920495

let lp_stream_test =
  let name, speed, run = QCheck_alcotest.to_alcotest qcheck_lp in
  ( name,
    speed,
    fun () ->
      Option.iter Alcotest.fail (lp_stream_mismatch pinned_lp_stream);
      run () )

let tests =
  ( "incremental",
    [ (* The corpus holds the full-rescan oracle's output, so these keep
         the names they had when the oracle ran live beside the engine. *)
      tc "incremental == oracle: arrivals/completions/crashes" `Quick (check_corpus Plain);
      tc "incremental == oracle: under the watchdog" `Quick (check_corpus Watchdog);
      tc "corpus: recovery under detector, retry and watchdog" `Quick (check_corpus Recovery);
      tc "corpus crosses re-homes, exhausted retries, swaps, sheds and resumes" `Quick
        test_corpus_coverage;
      tc "load cache == eager scan at every Phase I call: bursts, re-homes, swaps" `Quick
        test_phase1_cache;
      tc "sweep replay (4 domains)" `Quick test_sweep_replay;
      tc "congestion accessor == eager scan" `Quick test_congestion_accessor;
      tc "clamp path: over-allocation with re-homes and swaps" `Quick test_clamp_path
    ]
    @ [ QCheck_alcotest.to_alcotest qcheck_load;
        QCheck_alcotest.to_alcotest qcheck_phase1;
        lp_stream_test
      ] )
