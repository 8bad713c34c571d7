(* The six benchmark workloads: their inputs, one measured pass each,
   and the correctness checks every pass makes.

   A pass plays a fixed, pre-generated input to completion (a closed
   batch: there is no wall-clock arrival schedule). Set-up — topology
   or code construction plus input generation — happens before the
   pass and is timed on its own. The traced pass runs the same input
   with every layer call wrapped in a span; it must reproduce the
   untraced fingerprint. *)

module Topology = S3_net.Topology
module Task = S3_workload.Task
module Algorithm = S3_core.Algorithm
module Registry = S3_core.Registry
module Problem = S3_core.Problem
module Engine = S3_sim.Engine
module Metrics = S3_sim.Metrics
module Report = S3_sim.Report
module Fault = S3_fault.Fault
module Rs = S3_storage.Reed_solomon

(* Per-pass state shared by the workload code and the harness. *)
type ctx = {
  span : Span.t option;  (** [Some] in the traced pass *)
  scale : float;  (** 1 for real runs; the smoke check shrinks inputs *)
  mutable op_ns : int list;  (** per-operation latencies, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable fps : string list;  (** output digests, newest first *)
  mutable runs : Metrics.run list;  (** newest first *)
  mutable values : (string * float) list;  (** per-layer values the pass computes itself *)
}

let make_ctx ?span ~scale () =
  { span; scale; op_ns = []; attempted = 0; failed = 0; failures = []; fps = [];
    runs = []; values = [] }

let scaled ctx n = max 1 (int_of_float (Float.round (float_of_int n *. ctx.scale)))

let fail ctx msg =
  ctx.failed <- ctx.failed + 1;
  if List.length ctx.failures < 5 then ctx.failures <- msg :: ctx.failures

let layer ctx name f =
  match ctx.span with
  | None -> f ()
  | Some sp -> Span.wrap sp (Span.layer sp name) f

(* The digest of everything the pass produced; a single run keeps its
   own {!Report.fingerprint} so the leaf-spine pins match the repo's
   scale-bench fingerprints. *)
let fingerprint ctx =
  match ctx.fps with
  | [ one ] -> one
  | parts -> Digest.to_hex (Digest.string (String.concat "," (List.rev parts)))

type prepared = {
  topology_s : float;
  generate_s : float;
  run : ctx -> unit;  (** the measured pass, identical traced or not *)
  extra : ctx -> unit;  (** traced passes only, after [run]; not in its wall time *)
}

let no_extra _ = ()

let timed f =
  let t0 = Span.now_ns () in
  let r = f () in
  (r, float_of_int (Span.now_ns () - t0) *. 1e-9)

(* ------------------------------------------------------------------ *)
(* Simulation passes.                                                   *)

(* Wrap the algorithm's closures so each call is one span. The engine
   calls them one at a time, never nested. *)
let traced_algorithm sp ~lp (alg : Algorithm.t) =
  let sel = Span.layer sp "core.select" in
  let alloc = Span.layer sp (if lp then "core.allocate.lp" else "core.allocate.fill") in
  let res = Span.layer sp "core.reselect" in
  { alg with
    Algorithm.select_sources =
      (fun v t -> Span.wrap sp sel (fun () -> alg.Algorithm.select_sources v t));
    allocate = (fun v -> Span.wrap sp alloc (fun () -> alg.Algorithm.allocate v));
    reselect =
      Option.map
        (fun r v t ~eligible ~need ~remaining ->
          Span.wrap sp res (fun () -> r v t ~eligible ~need ~remaining))
        alg.Algorithm.reselect
  }

let useful_volume (run : Metrics.run) =
  List.fold_left
    (fun acc (o : Metrics.outcome) ->
      if o.Metrics.completed then acc +. Task.total_volume o.Metrics.task else acc)
    0. run.Metrics.outcomes

(* One [Engine.run]. An operation is one scheduling event: its latency
   is the interval between consecutive [on_event] callbacks, i.e. the
   time from one set of rates to the next. *)
let simulate ctx ?config ?faults ?detector ?retry ?watchdog ~lp topo name tasks =
  let alg = Registry.make name in
  let alg = match ctx.span with None -> alg | Some sp -> traced_algorithm sp ~lp alg in
  let last = ref 0 in
  let on_event _ _ _ =
    let t = Span.now_ns () in
    ctx.op_ns <- (t - !last) :: ctx.op_ns;
    last := t;
    Option.iter Span.next_event ctx.span
  in
  ctx.attempted <- ctx.attempted + 1;
  last := Span.now_ns ();
  match Engine.run ?config ?faults ?detector ?retry ?watchdog ~on_event topo alg tasks with
  | exception e -> fail ctx (Printf.sprintf "%s: %s" name (Printexc.to_string e))
  | run ->
    ctx.runs <- run :: ctx.runs;
    ctx.fps <- Report.fingerprint run :: ctx.fps;
    let drift =
      Float.abs
        (run.Metrics.transferred
        -. (useful_volume run +. run.Metrics.wasted +. run.Metrics.shed_volume))
    in
    if run.Metrics.clamp_events > 0 then
      fail ctx (Printf.sprintf "%s: %d clamp events" name run.Metrics.clamp_events)
    else if drift > (1e-6 *. Float.max 1. run.Metrics.transferred) +. 1e-3 then
      fail ctx (Printf.sprintf "%s: conservation drift %.6f Mb" name drift)

let fig2_algorithms =
  [ ("fifo", false); ("edf", false); ("disfifo", false); ("disedf", false);
    ("lstf", false); ("lpall", true); ("lpst", true) ]

let leaf_spine_workload tasks_of ~m ~seed ctx =
  let topo, topology_s = timed Scenes.leaf_spine in
  let tasks, generate_s = timed (fun () -> tasks_of ~seed ~m:(scaled ctx m)) in
  { topology_s;
    generate_s;
    run = (fun ctx -> simulate ctx ~lp:true topo "lpst" tasks);
    extra = no_extra
  }

let fig2_grid ~tasks ~seed ctx =
  let topo, topology_s = timed Scenes.two_tier in
  let tasks, generate_s =
    timed (fun () -> Scenes.table3_tasks ~seed ~tasks:(scaled ctx tasks) ~rate:1.4 topo)
  in
  { topology_s;
    generate_s;
    run =
      (fun ctx ->
        List.iter (fun (name, lp) -> simulate ctx ~lp topo name tasks) fig2_algorithms);
    extra = no_extra
  }

(* Servers 10-14 crash and the NICs of 15-19 fall to 5% for 120 s, both
   at t = 60, under U[0, 0.3] foreground load; a 2 s suspicion window,
   resumable retries and the deadline watchdog supervise the repairs. *)
let chaos_recovery ~tasks ~seed ctx =
  let topo, topology_s = timed Scenes.two_tier in
  let (tasks, faults), generate_s =
    timed (fun () ->
        let tasks = Scenes.table3_tasks ~seed ~tasks:(scaled ctx tasks) ~rate:1.4 topo in
        let server = Scenes.server_map ~seed topo in
        let at kind = { Fault.time = 60.; kind } in
        let faults =
          Fault.plan
            (List.init 5 (fun i -> at (Fault.Server_crash server.(10 + i)))
            @ List.init 5 (fun i ->
                  at
                    (Fault.Link_degrade
                       { entity = Topology.server_entity topo server.(15 + i);
                         factor = 0.05;
                         duration = 120.
                       })))
        in
        (tasks, faults))
  in
  let config = { Engine.foreground = S3_sim.Foreground.uniform ~max_frac:0.3; seed = 5 } in
  { topology_s;
    generate_s;
    run =
      (fun ctx ->
        simulate ctx ~config ~faults ~detector:(S3_fault.Detector.v ~suspect:2. ())
          ~retry:S3_sim.Retry.default ~watchdog:S3_sim.Watchdog.default ~lp:true topo "lpst"
          tasks);
    extra = no_extra
  }

(* ------------------------------------------------------------------ *)
(* Fig. 5: one scheduling plan on a standing burst scene.               *)

let equal_rates a b =
  List.equal (fun (i, x) (j, y) -> Int.equal i j && Float.equal x y) a b

let digest_rates rates =
  String.concat ";" (List.map (fun (i, r) -> Printf.sprintf "%d:%h" i r) rates)

(* Phase II then Phase III, exactly as a fresh LPST instance runs them
   on its first call: nothing is held yet, so every active task is a
   candidate for admission and the LP starts from an empty state. *)
let split_plan ctx ~m (view : Problem.view) =
  let admitted = layer ctx (Printf.sprintf "core.admit.m%d" m) (fun () -> S3_core.Lpst.admit view) in
  let flows = List.concat_map snd admitted in
  let state = S3_lp.Lp.create_state () in
  let lrb = S3_core.Rtf.flow_lrb view in
  layer ctx (Printf.sprintf "core.lp_allocate.m%d" m) (fun () ->
      match flows with
      | [] -> []
      | _ -> (
        match
          S3_core.Allocation.lp_allocate ~state ~incremental:true ~lower:lrb view flows
        with
        | Some rates -> rates
        | None -> List.map (fun f -> (f.Problem.flow_id, lrb f)) flows))

(* [reps] plans, each on a fresh LPST instance so no call sees an
   earlier call's cached LP solution or admission set. Instance
   creation is timed apart from the plan. Every call must return the
   first call's rates. Without [split] the plans are the workload's
   operations and enter its fingerprint; with it each plan is also
   recomputed as Phase II plus Phase III, which must match. *)
let plan_calls ctx ~m ~reps ~split view =
  let plan_layer = Printf.sprintf (if split then "plan.checked.m%d" else "plan.m%d") m in
  let reference = ref None in
  for _ = 1 to reps do
    ctx.attempted <- ctx.attempted + 1;
    let t0 = Span.now_ns () in
    let alg = Registry.make "lpst" in
    let t1 = Span.now_ns () in
    let rates = alg.Algorithm.allocate view in
    let t2 = Span.now_ns () in
    if not split then ctx.op_ns <- (t2 - t1) :: ctx.op_ns;
    Option.iter
      (fun sp ->
        Span.record sp (Span.layer sp "plan.create") t0 t1;
        Span.record sp (Span.layer sp plan_layer) t1 t2)
      ctx.span;
    (match !reference with
    | None ->
      reference := Some rates;
      if not split then ctx.fps <- Digest.to_hex (Digest.string (digest_rates rates)) :: ctx.fps
    | Some r -> if not (equal_rates r rates) then fail ctx "plan rates differ between calls");
    if split then begin
      ctx.attempted <- ctx.attempted + 1;
      if not (equal_rates rates (split_plan ctx ~m view)) then
        fail ctx (Printf.sprintf "m=%d: admit + lp_allocate differs from allocate" m)
    end
  done

let fig5_plan ~reps ~seed _ctx =
  let topo, topology_s = timed Scenes.two_tier in
  let (v400, v100), generate_s =
    timed (fun () -> (Scenes.plan_view ~seed ~m:400 topo, Scenes.plan_view ~seed ~m:100 topo))
  in
  { topology_s;
    generate_s;
    run = (fun ctx -> plan_calls ctx ~m:400 ~reps:(scaled ctx reps) ~split:false v400);
    extra =
      (fun ctx ->
        List.iter
          (fun (m, v) -> plan_calls ctx ~m ~reps:(scaled ctx (reps / 4)) ~split:true v)
          [ (400, v400); (100, v100) ])
  }

(* ------------------------------------------------------------------ *)
(* Codec: the storage data path, no scheduler involved.                 *)

type cell = {
  label : string;  (** e.g. "9_6.64k" *)
  code : Rs.code;
  data : bytes;
  shards : bytes array;  (** reference encoding *)
  survivors : (int * bytes) list;  (** parity-heavy: the last k shards *)
  helpers : (int * bytes) list;  (** k shards without shard 0 *)
}

let codec_codes = [ (9, 6); (14, 10) ]

(* 64 KiB shards fit in L2; 1 MiB shards do not. *)
let codec_shards = [ (64 * 1024, "64k"); (1024 * 1024, "1m") ]

let cell_bytes c = Bytes.length c.data

let codec_ops =
  [ ("encode",
     fun c ->
       let out = Rs.encode c.code c.data in
       Array.for_all2 Bytes.equal out c.shards);
    ("decode", fun c -> Bytes.equal (Rs.decode c.code c.survivors) c.data);
    ("reconstruct",
     fun c -> Bytes.equal (Rs.reconstruct c.code ~index:0 c.helpers) c.shards.(0))
  ]

(* A sweep is one operation: every op on every cell once. *)
let codec_repair ~sweeps ~seed ctx =
  let codes, topology_s =
    timed (fun () -> List.map (fun (n, k) -> ((n, k), Rs.make ~n ~k)) codec_codes)
  in
  let shard_scale = if ctx.scale < 1. then 16 else 1 in
  let cells, generate_s =
    timed (fun () ->
        List.concat_map
          (fun ((n, k), code) ->
            List.map
              (fun (shard, size) ->
                let data =
                  Scenes.random_bytes ~seed ~salt:(n + (64 * k) + shard)
                    (k * shard / shard_scale)
                in
                let shards = Rs.encode code data in
                let indexed = Array.to_list (Array.mapi (fun i s -> (i, s)) shards) in
                { label = Printf.sprintf "%d_%d.%s" n k size;
                  code;
                  data;
                  shards;
                  survivors = List.filteri (fun i _ -> i >= n - k) indexed;
                  helpers = List.filteri (fun i _ -> i >= 1 && i <= k) indexed
                })
              codec_shards)
          codes)
  in
  let run ctx =
    (* The parity shards; the data shards are the input itself. *)
    let parity c = Array.to_list (Array.sub c.shards (Rs.k c.code) (Rs.n c.code - Rs.k c.code)) in
    ctx.fps <-
      Digest.to_hex
        (Digest.string (String.concat "" (List.concat_map (fun c -> List.map Digest.bytes (parity c)) cells)))
      :: ctx.fps;
    for _ = 1 to scaled ctx sweeps do
      let t0 = Span.now_ns () in
      List.iter
        (fun c ->
          List.iter
            (fun (op, f) ->
              ctx.attempted <- ctx.attempted + 1;
              let ok = layer ctx (Printf.sprintf "storage.rs.%s.%s" op c.label) (fun () -> f c) in
              if not ok then fail ctx (Printf.sprintf "%s %s: wrong bytes" op c.label))
            codec_ops)
        cells;
      ctx.op_ns <- (Span.now_ns () - t0) :: ctx.op_ns
    done
  in
  let extra ctx =
    match ctx.span with
    | None -> ()
    | Some sp ->
      (* Striped encode on one and on two domains. *)
      let striped = List.find (fun c -> String.equal c.label "9_6.1m") cells in
      List.iter
        (fun d ->
          for _ = 1 to scaled ctx 8 do
            ctx.attempted <- ctx.attempted + 1;
            let out =
              layer ctx (Printf.sprintf "par.stripes.d%d" d) (fun () ->
                  Rs.encode_stripes ~domains:d striped.code striped.data)
            in
            if not (Array.for_all2 Bytes.equal out striped.shards) then
              fail ctx (Printf.sprintf "encode_stripes ~domains:%d: wrong bytes" d)
          done)
        [ 1; 2 ];
      (* MB/s per cell and per op over all cells: bytes of the object
         (k shards) handled per second of span time. *)
      let bytes_and_time name bytes =
        match Span.find sp name with
        | None -> (0., 0.)
        | Some l -> (float_of_int (bytes * Span.calls l), Span.total_s l)
      in
      let mbps (b, t) = if t > 0. then b /. t /. 1e6 else 0. in
      let sum = List.fold_left (fun (b, t) (b', t') -> (b +. b', t +. t')) (0., 0.) in
      List.iter
        (fun (op, _) ->
          let per_cell =
            List.map
              (fun c ->
                let bt = bytes_and_time (Printf.sprintf "storage.rs.%s.%s" op c.label) (cell_bytes c) in
                ctx.values <- (Printf.sprintf "storage.rs.%s.%s.mbps" op c.label, mbps bt) :: ctx.values;
                bt)
              cells
          in
          ctx.values <- (Printf.sprintf "storage.rs.%s.mbps" op, mbps (sum per_cell)) :: ctx.values)
        codec_ops;
      let d1 = mbps (bytes_and_time "par.stripes.d1" (cell_bytes striped)) in
      let d2 = mbps (bytes_and_time "par.stripes.d2" (cell_bytes striped)) in
      ctx.values <-
        ("par.stripes.d2.mbps", d2) :: ("par.stripes.speedup", if d1 > 0. then d2 /. d1 else 0.)
        :: ctx.values
  in
  { topology_s; generate_s; run; extra }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced pass.                                  *)

let percentile q = function [] -> 0. | xs -> S3_util.Stats.percentile q xs
let ratio a b = if b > 0. then a /. b else 0.
let us_of_ns ns = float_of_int ns /. 1e3

(* Everything the spans and the run records say about the layers.
   [wall] is the traced pass's wall time; on the simulation workloads
   the engine's own share is what the algorithm spans leave of it. *)
let per_layer ctx ~wall =
  let sp = match ctx.span with Some sp -> sp | None -> Span.create () in
  let layers names = List.filter_map (Span.find sp) names in
  let calls names = float_of_int (List.fold_left (fun a l -> a + Span.calls l) 0 (layers names)) in
  let self names = List.fold_left (fun a l -> a +. Span.total_s l) 0. (layers names) in
  let pct q names =
    percentile q
      (List.concat_map (fun l -> List.map us_of_ns (Array.to_list (Span.durations_ns l))) (layers names))
  in
  let select = [ "core.select" ] and reselect = [ "core.reselect" ] in
  let allocate = [ "core.allocate.lp"; "core.allocate.fill" ] in
  let checked = [ "plan.checked.m100"; "plan.checked.m400" ] in
  let split = [ "core.admit.m100"; "core.admit.m400"; "core.lp_allocate.m100"; "core.lp_allocate.m400" ] in
  let runs = ctx.runs in
  let sim = runs <> [] in
  let count f = float_of_int (List.fold_left (fun a r -> a + f r) 0 runs) in
  let sum f = List.fold_left (fun a r -> a +. f r) 0. runs in
  let events = count (fun r -> r.Metrics.events) in
  let engine_self = if sim then wall -. (self select +. self allocate +. self reselect) else 0. in
  let event_us = if sim then List.map us_of_ns ctx.op_ns else [] in
  [ ("core.select.calls", calls select);
    ("core.select.self_s", self select);
    ("core.select.p50_us", pct 50. select);
    ("core.reselect.calls", calls reselect);
    ("core.reselect.self_s", self reselect);
    ("core.allocate.calls", calls allocate);
    ("core.allocate.self_s", self allocate);
    ("core.allocate.p50_us", pct 50. allocate);
    ("core.allocate.p99_us", pct 99. allocate);
    ("core.allocate.lp.self_s", self [ "core.allocate.lp" ]);
    ("core.allocate.fill.self_s", self [ "core.allocate.fill" ]);
    ("plan.create_us", pct 50. [ "plan.create" ]);
    ("plan.m100.p50_us", pct 50. [ "plan.checked.m100" ]);
    ("plan.m400.p50_us", pct 50. [ "plan.m400" ]);
    ("plan.m400.p95_us", pct 95. [ "plan.m400" ]);
    ("core.admit.m100.p50_us", pct 50. [ "core.admit.m100" ]);
    ("core.admit.m400.p50_us", pct 50. [ "core.admit.m400" ]);
    ("core.lp_allocate.m100.p50_us", pct 50. [ "core.lp_allocate.m100" ]);
    ("core.lp_allocate.m400.p50_us", pct 50. [ "core.lp_allocate.m400" ]);
    ("core.split_coverage", ratio (self split) (self checked));
    ("sim.wall_s", if sim then wall else 0.);
    ("sim.engine.self_s", engine_self);
    ("sim.engine.self_us_per_event", ratio (engine_self *. 1e6) events);
    ("sim.event.p50_us", percentile 50. event_us);
    ("sim.event.p99_us", percentile 99. event_us);
    ("sim.engine.events", events);
    ("sim.engine.plan_calls", count (fun r -> r.Metrics.plan_calls));
    ("sim.engine.clamp_events", count (fun r -> r.Metrics.clamp_events));
    ("sim.plan_time_s", sum (fun r -> r.Metrics.plan_time));
    ("sim.deadline_hit_frac",
     ratio (count Metrics.completed) (count (fun r -> List.length r.Metrics.outcomes)));
    ("sim.wasted_frac", ratio (sum (fun r -> r.Metrics.wasted)) (sum (fun r -> r.Metrics.transferred)));
    ("sim.watchdog.swaps_attempted", count (fun r -> r.Metrics.swaps_attempted));
    ("sim.watchdog.swaps_successful", count (fun r -> r.Metrics.swaps_successful));
    ("sim.watchdog.shed", count (fun r -> r.Metrics.tasks_shed_early));
    ("sim.retry.attempted", count (fun r -> r.Metrics.retries_attempted));
    ("sim.retry.exhausted", count (fun r -> r.Metrics.retries_exhausted));
    ("sim.bytes_resumed_mb", sum (fun r -> r.Metrics.bytes_resumed));
    ("fault.flows_killed", count (fun r -> r.Metrics.flows_killed));
    ("fault.tasks_rehomed", count (fun r -> r.Metrics.tasks_rehomed));
    ("fault.tasks_lost", count (fun r -> r.Metrics.tasks_lost));
    ("fault.suspicions", count (fun r -> r.Metrics.suspicions));
    ("fault.detections", count (fun r -> r.Metrics.detections))
  ]
  @ ctx.values

(* ------------------------------------------------------------------ *)
(* The catalogue.                                                       *)

type t = {
  name : string;
  why : string;
  pinned : string;  (** fingerprint of a full-scale pass at seed 0 *)
  setup : seed:int -> ctx -> prepared;
}

let all =
  [ { name = "leafspine-burst";
      why =
        "10,000 rack-local LPST repairs at t=0 on a 1040-server leaf-spine: Phase I source \
         selection carries the most work";
      pinned = "1f618fe9d9b8024f50907386edd0ea25";
      setup = leaf_spine_workload Scenes.burst_tasks ~m:10000
    };
    { name = "leafspine-waves";
      why =
        "same fabric, tasks in 20 arrival waves: allocate-bound with per-rack LP block \
         caching; Phase I work should show no change here";
      pinned = "575ec4be8b3debc6da9ece70c9e66d9b";
      setup = leaf_spine_workload Scenes.wave_tasks ~m:3000
    };
    { name = "fig2-grid";
      why =
        "the paper's Fig. 2 cluster and tasks under all 7 algorithms: the allocate layer both \
         as an LP and as water/priority fill";
      pinned = "44b88918700c82dcd207c725e7a8eabc";
      setup = fig2_grid ~tasks:200
    };
    { name = "chaos-recovery";
      why =
        "crashes, degraded NICs, detection, retry, watchdog and foreground load: engine and \
         supervision bookkeeping carry the most work";
      pinned = "5b1a7dd1750d77503196477e6c8a0fc2";
      setup = chaos_recovery ~tasks:600
    };
    { name = "fig5-plan";
      why =
        "the paper's Fig. 5 plan time at m=400 on fresh LPST instances, no engine in the \
         loop: Phase II admission and the Phase III LP";
      pinned = "b054a91fa69646888c3a249a7cb24a32";
      setup = fig5_plan ~reps:1000
    };
    { name = "codec-repair";
      why =
        "RS (9,6) and (14,10) encode/decode/reconstruct on 64 KiB and 1 MiB shards: the \
         storage data path, where scheduler work should show no change";
      pinned = "ae671d6baa52f83046f2902d2a16fce5";
      setup = codec_repair ~sweeps:8
    }
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
