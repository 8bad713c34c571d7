module Task = S3_workload.Task
module Topology = S3_net.Topology
module Problem = S3_core.Problem
module Algorithm = S3_core.Algorithm
module Rtf = S3_core.Rtf
module Fault = S3_fault.Fault
module Detector = S3_fault.Detector

let src = Logs.Src.create "s3.engine" ~doc:"S3 scheduling engine"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  foreground : Foreground.config;
  seed : int;
}

let default_config = { foreground = Foreground.none; seed = 7 }

type data_plane = {
  control_latency : unit -> float;
  (* seconds all transfers stay paused after a scheduling event (the
     cloud prototype pauses rsync, recomputes, and reissues ssh
     commands); 0 for the ideal simulator *)
  shape_rate : flow_id:int -> float -> float;
  (* per-flow distortion of the assigned rate (quantization, jitter);
     must never return more than the assigned rate *)
}

let ideal_data_plane = { control_latency = (fun () -> 0.); shape_rate = (fun ~flow_id:_ r -> r) }

exception Invalid_selection of { task : int; server : int; detail : string }

let () =
  Printexc.register_printer (function
    | Invalid_selection { task; server; detail } ->
      Some
        (if server < 0 then Printf.sprintf "Engine.Invalid_selection(task %d): %s" task detail
         else Printf.sprintf "Engine.Invalid_selection(task %d, server %d): %s" task server detail)
    | _ -> None)

let invalid task server detail = raise (Invalid_selection { task; server; detail })

type live_flow = {
  flow_id : int;
  source : int;
  route : int array;  (* capacity entities consumed; fixed at spawn *)
  mutable remaining : float;
  mutable rate : float;
}

type live_task = {
  seq : int;  (* spawn sequence number; [!active] is sorted by it, descending *)
  task : Task.t;
  lflows : live_flow array;
  mutable resolved : bool;  (* flows gone: completed or abandoned *)
  mutable failed : bool;  (* deadline passed with volume outstanding *)
}

let volume_epsilon = 1e-6  (* megabits; ~0.1 byte *)
let time_epsilon = 1e-9

(* Does [route] cross [e] at slot [i] or later? Does every route of
   [routes] from index [j] on cross it (vacuously true past the end)? *)
let rec on_route (e : int) route i =
  i < Array.length route && (route.(i) = e || on_route e route (i + 1))

let rec on_every_route e routes j =
  j >= Array.length routes || (on_route e routes.(j) 0 && on_every_route e routes (j + 1))

(* The watchdog shed test's per-entity memo, stamped per task tested:
   [bits_at.(e)] is valid while [bits_stamp.(e)] is [stamp], the
   shared-entity demand [demand_at.(e)] while [demand_stamp.(e)] is. *)
type shed_memo = {
  bits_at : float array;
  bits_stamp : int array;
  demand_at : float array;
  demand_stamp : int array;
  mutable stamp : int;
}

let run ?(config = default_config) ?(data_plane = ideal_data_plane) ?on_event
    ?(faults = Fault.empty) ?detector ?retry ?on_failure ?watchdog topo (alg : Algorithm.t)
    tasks =
  let pending = Array.of_list (List.sort Task.compare_arrival tasks) in
  let validate_task (t : Task.t) =
    let ok s = s >= 0 && s < Topology.servers topo in
    if not (ok t.Task.destination && Array.for_all ok t.Task.sources) then
      invalid_arg "Engine.run: task references servers outside the topology"
  in
  Array.iter validate_task pending;
  let fg = Foreground.create (S3_util.Prng.create config.seed) topo config.foreground in
  let fstate = Fault.start topo faults in
  (* Control-plane failure knowledge. Without a detector the engine is
     omniscient (settles crashes at the injection instant, the pre-
     detection behaviour, bit-identical); with one, every reaction —
     flow kills, re-homes, losses, repair injection, candidate
     eligibility — keys off the detector's beliefs instead of the
     physical fault state, while rates keep being clamped by the
     physical multipliers (bytes keep flowing into a dead NIC at rate
     zero until the detector notices). *)
  let dstate = Option.map (fun c -> Detector.start topo c faults) detector in
  (* Resume-enabled recovery preserves a killed fetch's partial bytes
     in its replacement ([bytes_resumed]); off, replacements restart
     the chunk and the partial bytes are [wasted] (the historical
     accounting). *)
  let resume = match retry with Some rc -> rc.Retry.resume | None -> false in
  (* Is this destination believed unusable / this source believed
     unselectable? The control-plane view: physical truth when
     omniscient, detector beliefs otherwise (a merely suspected source
     is avoided for new selections but its flows are not killed). *)
  let dest_down s =
    match dstate with
    | None -> Fault.dead fstate s
    | Some d -> Detector.believed_dead d s
  in
  let source_excluded s =
    match dstate with
    | None -> Fault.ever_crashed fstate s
    | Some d -> Detector.known_crashed d s || Detector.suspected d s
  in
  let nent = Array.length (Topology.entities topo) in
  (* Fault-adjusted capacity: what the foreground process leaves over,
     further scaled by dead-server / degraded-link multipliers. The
     fault-free path keeps the raw closure so existing runs are
     bit-identical. *)
  let avail =
    if Fault.is_empty faults then Foreground.available fg
    else fun e -> Foreground.available fg e *. Fault.multiplier fstate e
  in
  let entity_bits = Array.make nent 0. in
  let active = ref [] in  (* reverse arrival order *)
  let next_pending = ref 0 in
  let next_flow_id = ref 0 in
  (* [recompute]'s rate hand-off, indexed by flow id; see there. *)
  let rate_buf = ref [||] and stamp_buf = ref [||] and rate_gen = ref 0 in
  let next_seq = ref 0 in
  let now = ref 0. in
  let outcomes = Hashtbl.create (Array.length pending * 2) in
  let plan_time = ref 0. and plan_calls = ref 0 in
  let frozen_until = ref 0. in  (* transfers paused until this time *)
  let events = ref 0 and clamp_events = ref 0 in
  let flows_killed = ref 0 and tasks_rehomed = ref 0 and tasks_lost = ref 0 in
  let wasted = ref 0. in
  let swaps_attempted = ref 0 and swaps_successful = ref 0 in
  let tasks_rescued = ref 0 and tasks_shed_early = ref 0 in
  let shed_volume = ref 0. in
  let suspicions = ref 0 and false_suspicions = ref 0 and detections = ref 0 in
  let bytes_resumed = ref 0. in
  let retries_attempted = ref 0 and retries_exhausted = ref 0 in
  (* Tasks the watchdog swapped at least once; counted as rescued only
     if they go on to complete by their deadline. *)
  let swapped_tasks = Hashtbl.create 16 in
  (* Closed-loop repair tasks injected mid-run, kept sorted by arrival;
     [injected_all] accumulates every injection for the final report. *)
  let injected = ref [] and injected_all = ref [] in
  let known_ids = Hashtbl.create (Array.length pending * 2) in
  Array.iter (fun (t : Task.t) -> Hashtbl.replace known_ids t.Task.id ()) pending;
  let inject ts =
    if ts <> [] then begin
      List.iter
        (fun (t : Task.t) ->
          validate_task t;
          if Hashtbl.mem known_ids t.Task.id then
            invalid_arg "Engine.run: injected task id collides with an existing task";
          Hashtbl.replace known_ids t.Task.id ())
        ts;
      injected_all := ts @ !injected_all;
      injected := List.merge Task.compare_arrival (List.sort Task.compare_arrival ts) !injected
    end
  in
  (* Per-entity accounting, kept exact by routing every rate change
     through [set_flow_rate]: usage.(e) = sum of rates of live flows
     whose route crosses e. *)
  let usage = Array.make nent 0. in
  (* ---- O(affected) indexes ----
     [ent_flows.(e)] holds every live flow whose route crosses [e],
     keyed by flow id with its (task seq, slot) position, so anything
     per-entity — congestion factors, clamp victims, crash candidates —
     is read off the bucket instead of scanning all flows. Buckets are
     maintained eagerly at every spawn / kill / completion, mirroring
     the view predicate exactly: a flow is bucketed iff its task is
     unresolved and it has volume remaining. *)
  let ent_flows : (int, int * int * live_task * live_flow) Hashtbl.t array =
    Array.init nent (fun _ -> Hashtbl.create 4)
  in
  (* Every spawned task under its destination; [Hashtbl.find_all] lists
     the newest first. *)
  let tasks_by_dest : (int, live_task) Hashtbl.t = Hashtbl.create 64 in
  let index_add lt slot f =
    Array.iter (fun e -> Hashtbl.replace ent_flows.(e) f.flow_id (lt.seq, slot, lt, f)) f.route
  in
  (* Phase I load cache (see [entity_load]): [load_value.(e)] is valid
     iff [load_stamp.(e) = !load_epoch]. *)
  let load_value = Array.make nent 0. in
  let load_stamp = Array.make nent (-1) in
  let load_epoch = ref 0 in
  let invalidate_route f = Array.iter (fun e -> load_stamp.(e) <- -1) f.route in
  let index_remove f =
    Array.iter (fun e -> Hashtbl.remove ent_flows.(e) f.flow_id) f.route;
    invalidate_route f
  in
  (* Dirty capacity entities: usage or availability may have moved since
     the last clamp, so only these need re-checking. The invariant
     "not dirty => usage <= available + 1e-6" is restored by every
     clamp and preserved by marking on every rate change, fault change
     and foreground redraw. *)
  let dirty = Array.make nent false in
  let dirty_list = ref [] in
  let mark_dirty e =
    if not dirty.(e) then begin
      dirty.(e) <- true;
      dirty_list := e :: !dirty_list
    end
  in
  let fg_generation = ref (Foreground.generation fg) in
  let flow_lrb lt f = Rtf.lrb ~now:!now ~deadline:lt.task.Task.deadline ~remaining:f.remaining in
  (* The bucket's flows of unresolved tasks in (task seq, slot) order —
     the order of a view's flow list. *)
  let bucket_in_order e =
    Hashtbl.fold
      (fun _ ((_, _, lt, _) as entry) acc -> if lt.resolved then acc else entry :: acc)
      ent_flows.(e) []
    |> List.sort (fun (sa, la, _, _) (sb, lb, _, _) ->
           match Int.compare sa sb with 0 -> Int.compare la lb | c -> c)
  in
  (* Per-entity congestion load for Phase I: the sum of finite LRBs of
     the bucket's flows, folded in view order — (task seq, slot)
     ascending is exactly the order [Congestion.of_view] walks the
     flow list, so the lazy accessor and the eager scan accumulate the
     same floats in the same order and agree bit-for-bit (the test
     suite checks this at every Phase I call).

     A miss sorts and folds the bucket, O(flows on entity); the value
     then stays cached, so further probes within an instant are O(1):
     - [spawn] appends ([append_load]): a fresh task's seq exceeds
       every seq in a bucket and its slots arrive ascending, so adding
       its finite LRBs to the valid entries on each route is exactly
       the fold's next step;
     - [index_remove] and [replace_slots] invalidate their routes (a
       re-homed flow lands mid-order, even in the newest task);
     - [now] and every [remaining] moving (the clock step with
       [advance_volumes]) invalidates all entries. *)
  let entity_load e =
    if load_stamp.(e) = !load_epoch then load_value.(e)
    else begin
      let v =
        List.fold_left
          (fun acc (_, _, lt, f) ->
            if f.remaining <= 0. then acc
            else
              let l = flow_lrb lt f in
              if Float.is_finite l then acc +. l else acc)
          0. (bucket_in_order e)
      in
      load_value.(e) <- v;
      load_stamp.(e) <- !load_epoch;
      v
    end
  in
  let append_load lt f =
    if (not lt.resolved) && f.remaining > 0. then begin
      let l = flow_lrb lt f in
      if Float.is_finite l then
        Array.iter
          (fun e -> if load_stamp.(e) = !load_epoch then load_value.(e) <- load_value.(e) +. l)
          f.route
    end
  in
  let make_view () =
    (* The flow list is the expensive part of a view — O(all live
       flows) to build — and Phase-I source selection with the [load]
       index below never reads it, so it stays a thunk: spawns that
       only probe congestion cost nothing here, allocate-time
       algorithms force it once before any further mutation (the
       engine never hands a view across a state change). *)
    let act = !active in
    (* One fold over [act], newest task first, prepending each task's
       live flows from its last slot down: the list comes out oldest
       task first, slots ascending. *)
    let rec prepend lt i acc =
      if i < 0 then acc
      else
        let f = lt.lflows.(i) in
        prepend lt (i - 1)
          (if f.remaining > 0. then
             { Problem.flow_id = f.flow_id; task = lt.task; source = f.source; remaining = f.remaining }
             :: acc
           else acc)
    in
    let flows =
      lazy
        (List.fold_left
           (fun acc lt -> if lt.resolved then acc else prepend lt (Array.length lt.lflows - 1) acc)
           [] act)
    in
    { Problem.now = !now;
      topo;
      flows;
      available = avail;
      load = Some entity_load
    }
  in
  let set_flow_rate f r =
    if not (Float.equal r f.rate) then begin
      let d = r -. f.rate in
      f.rate <- r;
      Array.iter
        (fun e ->
          usage.(e) <- usage.(e) +. d;
          mark_dirty e)
        f.route
    end
  in
  (* Scale any over-committed entity's flows down proportionally; a
     correct algorithm never triggers this. *)
  let clamp_entity e a =
    Log.warn (fun m ->
        m "t=%.3f clamping entity %d: allocated %.3f > available %.3f" !now e usage.(e) a);
    let scale = max 0. (a /. usage.(e)) in
    (* Scaling is independent per flow, but a stable victim order keeps
       logs and any future coupled updates replayable. *)
    List.iter
      (fun (_, _, _, f) ->
        if f.rate > 0. && f.remaining > 0. then set_flow_rate f (f.rate *. scale))
      (bucket_in_order e)
  in
  (* Only dirty entities can be violated (clean ones kept their usage
     and availability since the last clamp, which left them satisfied).
     Each pass snapshots the dirty set in ascending entity order, and
     scaling re-marks the victims' routes for the next pass. *)
  let clamp_rates () =
    let clamped = ref false in
    let pass () =
      let snapshot = List.sort_uniq Int.compare !dirty_list in
      dirty_list := [];
      List.iter (fun e -> dirty.(e) <- false) snapshot;
      let violated = ref false in
      List.iter
        (fun e ->
          let a = avail e in
          if usage.(e) > a +. 1e-6 then begin
            violated := true;
            clamped := true;
            clamp_entity e a
          end)
        snapshot;
      !violated
    in
    let rec go n = if n > 0 && pass () then go (n - 1) in
    go 10;
    if !clamped then incr clamp_events
  in
  let recompute () =
    let view = make_view () in
    (* lint: allow nondet-source — planner CPU-time diagnostic only;
       [plan_time] is excluded from result fingerprints (report.ml) *)
    let t0 = Sys.time () in
    let rates = alg.Algorithm.allocate view in
    (* lint: allow nondet-source — same diagnostic as [t0] above *)
    plan_time := !plan_time +. (Sys.time () -. t0);
    incr plan_calls;
    (* The rates by flow id, stamped with this event's generation: a
       later pair for the same id wins, and a flow the algorithm left
       out reads 0. Ids outside [0, next_flow_id) name no flow. *)
    incr rate_gen;
    let gen = !rate_gen in
    if Array.length !rate_buf < !next_flow_id then begin
      let size = max !next_flow_id (2 * Array.length !rate_buf) in
      rate_buf := Array.make size 0.;
      stamp_buf := Array.make size 0
    end;
    let rate_of = !rate_buf and rate_stamp = !stamp_buf in
    List.iter
      (fun (fid, r) ->
        if fid >= 0 && fid < !next_flow_id then begin
          rate_of.(fid) <- max 0. r;
          rate_stamp.(fid) <- gen
        end)
      rates;
    (* Every rate change flows through [set_flow_rate], so the usage
       table and the dirty set stay exact. Dead flows (resolved task or
       no volume left) already hold rate 0 and are skipped. *)
    List.iter
      (fun lt ->
        if not lt.resolved then
          Array.iter
            (fun f ->
              if f.remaining > 0. then
                set_flow_rate f (if rate_stamp.(f.flow_id) = gen then rate_of.(f.flow_id) else 0.))
            lt.lflows)
      !active;
    clamp_rates ();
    (* Data-plane distortion: applied after clamping and only ever
       downward, so feasibility is preserved. *)
    List.iter
      (fun lt ->
        Array.iter
          (fun f ->
            if f.rate > 0. then
              set_flow_rate f
                (max 0. (min f.rate (data_plane.shape_rate ~flow_id:f.flow_id f.rate))))
          lt.lflows)
      !active;
    let pause = data_plane.control_latency () in
    if pause > 0. then frozen_until := max !frozen_until (!now +. pause);
    match on_event with
    | None -> ()
    | Some hook -> hook !now view rates
  in
  let record_outcome lt ~completed =
    Log.debug (fun m ->
        m "t=%.3f task#%d %s" !now lt.task.Task.id
          (if completed then "completed" else "missed deadline"));
    Hashtbl.replace outcomes lt.task.Task.id
      { Metrics.task = lt.task;
        sources = Array.map (fun f -> f.source) lt.lflows;
        completed;
        finish_time = (if completed then !now else lt.task.Task.deadline);
        remaining =
          (if completed then 0.
           else Array.fold_left (fun acc f -> acc +. max 0. f.remaining) 0. lt.lflows)
      }
  in
  let record_lost_at_arrival (t : Task.t) =
    Log.debug (fun m -> m "t=%.3f task#%d unrecoverable at arrival" !now t.Task.id);
    Hashtbl.replace outcomes t.Task.id
      { Metrics.task = t;
        sources = [||];
        completed = false;
        finish_time = t.Task.deadline;
        remaining = Task.total_volume t
      };
    incr tasks_lost
  in
  (* End a fetch: take its rate out of the usage table, zero its volume
     and drop it from the buckets. Returns the megabits it delivered. *)
  let retire lt f =
    let delivered = lt.task.Task.volume -. f.remaining in
    set_flow_rate f 0.;
    f.remaining <- 0.;
    index_remove f;
    delivered
  in
  (* End every fetch of [lt], slot by slot, booking what each delivered
     into [counter], and resolve the task. *)
  let retire_task lt counter =
    Array.iter (fun f -> counter := !counter +. retire lt f) lt.lflows;
    lt.resolved <- true
  in
  (* End a fetch that is about to be replaced (crash re-home, watchdog
     swap, retry re-home): with resume its progress carries into the
     replacement ([bytes_resumed]; the conservation law's
     completed-volume side absorbs it because the replacement only
     fetches the remainder), without it the progress is written off. *)
  let kill_for_replacement lt f =
    let progress = retire lt f in
    if resume then bytes_resumed := !bytes_resumed +. progress
    else wasted := !wasted +. progress
  in
  (* The algorithm's answer must name exactly [need] distinct servers of
     [allowed]; [verb], [outsider] and [suffix] word the failure. *)
  let check_answer ~verb ~outsider ~suffix id answer ~need ~allowed =
    let name = alg.Algorithm.name in
    if Array.length answer <> need then
      invalid id (-1)
        (Printf.sprintf "%s %s %d sources, need %d%s" name verb (Array.length answer) need suffix);
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun s ->
        if not (Array.exists (fun c -> c = s) allowed) then
          invalid id s (Printf.sprintf "%s %s %s source%s" name verb outsider suffix);
        if Hashtbl.mem seen s then
          invalid id s (Printf.sprintf "%s %s a duplicate source%s" name verb suffix);
        Hashtbl.replace seen s ())
      answer
  in
  let new_flow (t : Task.t) ~remaining source =
    let flow_id = !next_flow_id in
    incr next_flow_id;
    { flow_id;
      source;
      route = Topology.route_array topo ~src:source ~dst:t.Task.destination;
      remaining;
      rate = 0.
    }
  in
  (* Candidates of [t] that are not excluded and not in [busy]. *)
  let spare_sources (t : Task.t) busy =
    Array.to_list t.Task.sources
    |> List.filter (fun s -> (not (source_excluded s)) && not (List.mem s busy))
    |> Array.of_list
  in
  (* What a replacement fetch for this slot must still move, captured
     before the kill zeroes the slot. *)
  let replacement_remaining lt f = if resume then f.remaining else lt.task.Task.volume in
  (* Replace the fetches in [slots] of [lt] (crash re-home, watchdog
     swap, retry re-home): end each, then — against a view taken after
     the kills — ask [reselect] for one new source per slot among
     [eligible], check the answer, and splice fresh flows into the slots
     in order. [suffix] tags the Invalid_selection details with the
     calling site. Returns the new sources. *)
  let replace_slots reselect lt ~eligible ~slots ~suffix =
    let need = List.length slots in
    let rem = Array.of_list (List.map (fun i -> replacement_remaining lt lt.lflows.(i)) slots) in
    List.iter (fun i -> kill_for_replacement lt lt.lflows.(i)) slots;
    let view = make_view () in
    let repl = reselect view lt.task ~eligible ~need ~remaining:rem in
    check_answer ~verb:"reselected" ~outsider:"an ineligible" ~suffix lt.task.Task.id repl ~need
      ~allowed:eligible;
    List.iteri
      (fun j i ->
        lt.lflows.(i) <- new_flow lt.task ~remaining:rem.(j) repl.(j);
        index_add lt i lt.lflows.(i);
        invalidate_route lt.lflows.(i))
      slots;
    repl
  in
  (* The task can no longer finish: record the failure (with the
     remaining volume still intact, so the metric sees it), stop every
     in-flight fetch, and write off delivered chunks. *)
  let lose lt =
    Log.debug (fun m -> m "t=%.3f task#%d lost to a fault" !now lt.task.Task.id);
    if not lt.failed then begin
      record_outcome lt ~completed:false;
      lt.failed <- true
    end;
    Array.iter (fun f -> if f.remaining > 0. then incr flows_killed) lt.lflows;
    retire_task lt wasted;
    incr tasks_lost
  in
  let spawn (t : Task.t) =
    if dest_down t.Task.destination then record_lost_at_arrival t
    else begin
      (* Crashed-and-recovered servers came back empty: their chunks are
         gone, so they are never candidates again. Under a detector
         this is the control plane's belief — confirmed-dead-at-some-
         point or currently suspected servers are skipped; a dead but
         undetected server is still selected (and the fetch stalls at
         rate zero until the detector fires). *)
      let candidates =
        if Fault.is_empty faults && Option.is_none dstate then t.Task.sources
        else spare_sources t []
      in
      if Array.length candidates < t.Task.k then record_lost_at_arrival t
      else begin
        let view = make_view () in
        let t_sel =
          if Array.length candidates = Array.length t.Task.sources then t
          else { t with Task.sources = candidates }
        in
        let sources = alg.Algorithm.select_sources view t_sel in
        check_answer ~verb:"selected" ~outsider:"a non-candidate" ~suffix:"" t.Task.id sources
          ~need:t.Task.k ~allowed:candidates;
        let lflows = Array.map (new_flow t ~remaining:t.Task.volume) sources in
        Log.debug (fun m ->
            m "t=%.3f spawn %a sources=[%s]" !now Task.pp t
              (String.concat ";" (Array.to_list (Array.map string_of_int sources))));
        let seq = !next_seq in
        incr next_seq;
        let lt = { seq; task = t; lflows; resolved = false; failed = false } in
        active := lt :: !active;
        Array.iteri
          (fun slot f ->
            index_add lt slot f;
            append_load lt f)
          lflows;
        Hashtbl.add tasks_by_dest t.Task.destination lt
      end
    end
  in
  (* Settle a batch of servers confirmed dead (physically, or by the
     detector): lose tasks whose destination went down; for tasks that
     lost sources, ask the algorithm to re-home the affected subtasks
     onto surviving candidates, or lose the task when that is
     impossible; then let the repair hook answer each crash. The batch
     is normalized first, so eligibility always reflects the
     end-of-batch state (a crash-and-recover at one instant still loses
     the data). *)
  let settle crashed_batch =
    let crashed s = List.mem s crashed_batch in
    let crash_check lt =
      if lt.resolved then ()
      else if crashed lt.task.Task.destination then lose lt
      else
        let dead_src f = f.remaining > 0. && crashed f.source in
        match
          List.init (Array.length lt.lflows) Fun.id |> List.filter (fun i -> dead_src lt.lflows.(i))
        with
        | [] -> ()
        | slots -> (
          let need = List.length slots in
          (* Surviving candidates not already serving (or having
             served) one of this task's chunks. *)
          let eligible =
            spare_sources lt.task
              (Array.to_list lt.lflows
              |> List.filter_map (fun f -> if dead_src f then None else Some f.source))
          in
          match alg.Algorithm.reselect with
          | Some reselect when Array.length eligible >= need ->
            flows_killed := !flows_killed + need;
            let repl = replace_slots reselect lt ~eligible ~slots ~suffix:"" in
            incr tasks_rehomed;
            Log.debug (fun m ->
                m "t=%.3f task#%d re-homed %d subtask(s) onto [%s]" !now lt.task.Task.id need
                  (String.concat ";" (Array.to_list (Array.map string_of_int repl))))
          | _ -> lose lt)
    in
    (* Only tasks that lost their destination or a live source can be
       affected. Both are read off indexes: destination from
       [tasks_by_dest], sources from the buckets of the dead servers'
       NIC entities (every flow's route crosses its source NIC; the
       source = destination corner is covered by the destination
       index). Candidates are processed in descending spawn order — the
       order of [!active] — so interleaved re-home views are those of a
       walk over every active task. *)
    let seen = Hashtbl.create 16 in
    let candidates = ref [] in
    let consider lt =
      if (not lt.resolved) && not (Hashtbl.mem seen lt.seq) then begin
        Hashtbl.replace seen lt.seq ();
        candidates := lt :: !candidates
      end
    in
    List.iter
      (fun s ->
        List.iter consider (Hashtbl.find_all tasks_by_dest s);
        Hashtbl.iter (fun _ (_, _, lt, _) -> consider lt) ent_flows.(Topology.server_entity topo s))
      crashed_batch;
    List.sort (fun a b -> Int.compare b.seq a.seq) !candidates |> List.iter crash_check;
    match on_failure with
    | None -> ()
    | Some hook -> List.iter (fun s -> inject (hook ~now:!now ~server:s)) crashed_batch
  in
  (* ---- deadline watchdog (see Watchdog and DESIGN.md §11) ---- *)
  let wd_states : (int, Watchdog.tstate) Hashtbl.t = Hashtbl.create 16 in
  let wd_state id =
    match Hashtbl.find_opt wd_states id with
    | Some st -> st
    | None ->
      let st = Watchdog.fresh () in
      Hashtbl.replace wd_states id st;
      st
  in
  (* The task can no longer finish on any remaining source set: cancel
     it now so its bandwidth goes to savable tasks instead of burning
     until the deadline. The delivered chunks are the shed remainder of
     the conservation law, kept separate from fault/abandon waste. *)
  let shed lt =
    Log.debug (fun m -> m "t=%.3f task#%d shed early by the watchdog" !now lt.task.Task.id);
    record_outcome lt ~completed:false;
    lt.failed <- true;
    retire_task lt shed_volume;
    incr tasks_shed_early
  in
  (* The shed test's memo, one record per run: its arrays are empty
     unless a watchdog runs, so that unsupervised runs allocate nothing
     for them. *)
  let sc =
    let n = if Option.is_some watchdog then nent else 0 in
    { bits_at = Array.make n 0.;
      bits_stamp = Array.make n 0;
      demand_at = Array.make n 0.;
      demand_stamp = Array.make n 0;
      stamp = 0
    }
  in
  (* One supervision pass: project every in-flight subtask's finish
     from its assigned rate; swap stragglers onto unused spare sources
     (budgeted, backed off) and shed provably infeasible tasks. Returns
     true if it changed the flow set, in which case the caller must
     recompute and supervise again — the loop terminates because sheds
     are monotone and swaps consume per-task budget. *)
  let supervise (cfg : Watchdog.config) =
    let changed = ref false in
    let transfer_start = max !now !frozen_until in
    (* Inlined, so that the projection boxes no float. *)
    let[@inline] projected f =
      if f.remaining <= 0. then neg_infinity
      else if f.rate > 0. then transfer_start +. (f.remaining /. f.rate)
      else infinity
    in
    (* The slots of [lt] projected to finish after [limit], ascending;
       a task without one allocates nothing. *)
    let rec late_slots lt limit i acc =
      if i < 0 then acc
      else late_slots lt limit (i - 1) (if projected lt.lflows.(i) > limit then i :: acc else acc)
    in
    List.iter
      (fun lt ->
        let t = lt.task in
        let dl = t.Task.deadline in
        if (not lt.resolved) && not lt.failed then
          match
            late_slots lt (dl +. cfg.Watchdog.slack +. time_epsilon) (Array.length lt.lflows - 1) []
          with
          | [] -> ()
          | stragglers ->
            let st = wd_state t.Task.id in
            (* Spare sources: never crashed, not currently fetching a
               chunk, and not already swapped away from (a source the
               watchdog abandoned as too slow stays abandoned). *)
            let eligible =
              spare_sources t
                (Array.fold_left (fun acc f -> f.source :: acc) st.Watchdog.abandoned lt.lflows)
            in
            (* Infeasible on every remaining source set? Two conservative
               checks: (a) some chunk exceeds what even its best allowed
               path can deliver in time; (b) the entities every possible
               assignment crosses (current route ∩ all spare routes —
               e.g. the destination NIC) cannot carry the task's whole
               remaining demand. Both use time-integrated capacity, so a
               degradation expiring before the deadline never sheds a
               savable task. Each entity's bits, each spare route's
               throughput and each entity's demand are computed once per
               task and folded in the order a per-flow recomputation
               would fold them; [min]/[max] at float are spelled out as
               Stdlib defines them. *)
            let infeasible () =
              dl > transfer_start
              && begin
                   sc.stamp <- sc.stamp + 1;
                   let stamp = sc.stamp in
                   (* Deliverable megabits through an entity before the
                      deadline, assuming no further fault events: the
                      current foreground share times the integral of the
                      degradation multiplier (degradations expire on
                      schedule). *)
                   let[@inline] bits e =
                     if sc.bits_stamp.(e) <> stamp then begin
                       sc.bits_at.(e) <-
                         Foreground.available fg e
                         *. Fault.deliverable fstate e ~from:transfer_start ~until:dl;
                       sc.bits_stamp.(e) <- stamp
                     end;
                     sc.bits_at.(e)
                   in
                   let[@inline] through route =
                     let acc = ref infinity in
                     for i = 0 to Array.length route - 1 do
                       let b = bits route.(i) in
                       acc := if !acc <= b then !acc else b
                     done;
                     !acc
                   in
                   let spare_routes =
                     Array.map
                       (fun s -> Topology.route_array topo ~src:s ~dst:t.Task.destination)
                       eligible
                   in
                   let spare = Array.map (fun r -> through r) spare_routes in
                   let flow_doomed f =
                     let best = ref (through f.route) in
                     for j = 0 to Array.length spare - 1 do
                       best := if !best >= spare.(j) then !best else spare.(j)
                     done;
                     f.remaining > !best +. volume_epsilon
                   in
                   Array.iter
                     (fun f ->
                       if f.remaining > 0. then
                         for j = 0 to Array.length f.route - 1 do
                           let e = f.route.(j) in
                           if on_every_route e spare_routes 0 then begin
                             let d =
                               if sc.demand_stamp.(e) = stamp then sc.demand_at.(e) else 0.
                             in
                             sc.demand_at.(e) <- d +. f.remaining;
                             sc.demand_stamp.(e) <- stamp
                           end
                         done)
                     lt.lflows;
                   let overloaded f =
                     let over = ref false in
                     for j = 0 to Array.length f.route - 1 do
                       let e = f.route.(j) in
                       if sc.demand_stamp.(e) = stamp
                          && sc.demand_at.(e) > bits e +. volume_epsilon
                       then over := true
                     done;
                     !over
                   in
                   Array.exists (fun f -> f.remaining > 0. && flow_doomed f) lt.lflows
                   || Array.exists (fun f -> f.remaining > 0. && overloaded f) lt.lflows
                 end
            in
            if infeasible () then begin
              shed lt;
              changed := true
            end
            else begin
              match alg.Algorithm.reselect with
              | Some reselect when Watchdog.can_intervene cfg st ~now:!now ->
                (* can_intervene guarantees budget remains, so want >= 1. *)
                let want =
                  min (List.length stragglers) (cfg.Watchdog.max_swaps - st.Watchdog.swaps)
                in
                swaps_attempted := !swaps_attempted + want;
                let view = make_view () in
                (* Only hedge onto sources that could still make the
                   deadline at current available bandwidth — swapping
                   onto an equally hopeless path would just burn budget.
                   Under resume a spare only has to carry the worst
                   straggler's remainder, not a whole chunk. *)
                let hedge_rem =
                  if resume then
                    List.fold_left
                      (fun acc i -> Float.max acc lt.lflows.(i).remaining)
                      0. stragglers
                  else t.Task.volume
                in
                let eligible =
                  Array.to_list eligible
                  |> List.filter (fun s ->
                         Rtf.path_feasible view t ~src:s ~remaining:hedge_rem)
                  |> Array.of_list
                in
                let n = min want (Array.length eligible) in
                if n = 0 then
                  (* No usable spare right now: burn the backoff gap,
                     not the swap budget, and look again later. *)
                  Watchdog.note_intervention cfg st ~now:!now ~replaced:0
                else begin
                  (* Worst first: stragglers crossing a degraded entity,
                     then latest projected finish (stalled flows project
                     to infinity and lead), then flow order. *)
                  let route_degraded f =
                    Array.exists (fun e -> Fault.degraded fstate e) f.route
                  in
                  let slots =
                    List.map
                      (fun i ->
                        let f = lt.lflows.(i) in
                        ((if route_degraded f then 0 else 1), -.projected f, i))
                      stragglers
                    |> List.sort (fun (da, pa, ia) (db, pb, ib) ->
                           match Int.compare da db with
                           | 0 -> (
                             match Float.compare pa pb with
                             | 0 -> Int.compare ia ib
                             | c -> c)
                           | c -> c)
                    |> List.filteri (fun j _ -> j < n)
                    |> List.map (fun (_, _, i) -> i)
                  in
                  (* A hedged swap abandons the straggling partial fetch
                     and its source. Without resume the replacement
                     restarts the chunk and the delivered bits become
                     waste — a fault kill's accounting without the fault
                     counter; with resume it picks up where the
                     straggler stopped. *)
                  List.iter (fun i -> Watchdog.abandon st lt.lflows.(i).source) slots;
                  let repl =
                    replace_slots reselect lt ~eligible ~slots ~suffix:" (watchdog swap)"
                  in
                  Watchdog.note_intervention cfg st ~now:!now ~replaced:n;
                  swaps_successful := !swaps_successful + n;
                  Hashtbl.replace swapped_tasks t.Task.id ();
                  Log.debug (fun m ->
                      m "t=%.3f task#%d watchdog swapped %d straggler(s) onto [%s]" !now
                        t.Task.id n
                        (String.concat ";" (Array.to_list (Array.map string_of_int repl))));
                  changed := true
                end
              | _ -> ()
            end)
      (List.rev !active);
    if !changed then active := List.filter (fun lt -> not lt.resolved) !active;
    !changed
  in
  (* Every recomputation runs under supervision when a watchdog config
     is given; with [?watchdog:None] this is recompute and nothing else,
     so existing runs stay bit-identical. *)
  let replan () =
    recompute ();
    match watchdog with
    | None -> ()
    | Some cfg ->
      let rec go budget =
        if budget > 0 && supervise cfg then begin
          recompute ();
          go (budget - 1)
        end
      in
      go 10_000
  in
  (* ---- transfer retry policy (see Retry and DESIGN.md §16) ----
     Per-flow stall timers, indexed by flow id: ids are dense in
     [0, next_flow_id), and a flow spawned since the last refresh lies
     past the end and has no timer yet. A flow is stalled when it has
     volume left, holds no rate, and its route crosses a degraded
     entity — the transient-outage signature (crashes are the
     detector's business). Timers are refreshed after every replan and
     fire through the event loop like any other event source. *)
  let rstates : Retry.fstate option array ref = ref [||] in
  let retry_timer fid = if fid < Array.length !rstates then !rstates.(fid) else None in
  let flow_stalled f =
    f.remaining > 0. && f.rate <= 0.
    && Array.exists (fun e -> Fault.degraded fstate e) f.route
  in
  (* The earliest timer deadline, as of the last [update_retry_clocks]. *)
  let next_retry = ref infinity in
  let update_retry_clocks () =
    match retry with
    | None -> ()
    | Some rc ->
      let have = Array.length !rstates in
      if have < !next_flow_id then
        rstates := Array.append !rstates (Array.make (max !next_flow_id (2 * have) - have) None);
      let due = ref infinity in
      let note st = due := Float.min !due (Retry.next_deadline rc st) in
      List.iter
        (fun lt ->
          if (not lt.resolved) && not lt.failed then
            Array.iter
              (fun f ->
                if f.remaining > 0. then
                  match !rstates.(f.flow_id) with
                  | Some st ->
                    if flow_stalled f then Retry.mark_stalled st ~now:!now
                    else Retry.clear st;
                    note st
                  | None ->
                    if flow_stalled f then begin
                      let st = Retry.fresh () in
                      Retry.mark_stalled st ~now:!now;
                      !rstates.(f.flow_id) <- Some st;
                      note st
                    end)
              lt.lflows)
        !active;
      next_retry := !due
  in
  (* Fire every retry timer due now. A retry within budget re-issues
     the fetch against the same source — physically a no-op in the
     fluid model, but it restarts the timer with a backed-off gap. An
     exhausted timer re-homes the flow onto a different eligible source
     (or gives up and stops timing when none exists / the algorithm has
     no reselect hook). Returns the number of events fired. *)
  let retry_pass () =
    match retry with
    | None -> 0
    | Some rc ->
      let fired = ref 0 in
      List.iter
        (fun lt ->
          if (not lt.resolved) && not lt.failed then
            Array.iteri
              (fun i f ->
                if f.remaining > 0. then
                  match retry_timer f.flow_id with
                  | Some st when Retry.next_deadline rc st <= !now +. time_epsilon ->
                    incr fired;
                    if not (Retry.exhausted rc st) then begin
                      Retry.note_retry st ~now:!now;
                      incr retries_attempted;
                      Log.debug (fun m ->
                          m "t=%.3f task#%d retrying stalled fetch from server %d (%d/%d)"
                            !now lt.task.Task.id f.source st.Retry.attempts rc.Retry.retries)
                    end
                    else begin
                      incr retries_exhausted;
                      let eligible =
                        spare_sources lt.task
                          (Array.fold_left (fun acc g -> g.source :: acc) [] lt.lflows)
                      in
                      match alg.Algorithm.reselect with
                      | Some reselect when Array.length eligible >= 1 ->
                        let repl =
                          replace_slots reselect lt ~eligible ~slots:[ i ] ~suffix:" (retry)"
                        in
                        incr tasks_rehomed;
                        Log.debug (fun m ->
                            m "t=%.3f task#%d retry budget exhausted, re-homed onto server %d"
                              !now lt.task.Task.id repl.(0))
                      | _ ->
                        (* Nowhere to go: keep the stalled fetch (the
                           degradation may still expire in time) but
                           stop timing it. *)
                        Retry.give_up st
                    end
                  | _ -> ())
              lt.lflows)
        (List.rev !active);
      !fired
  in
  let moved_total = ref 0. in
  (* Transfer over [now, now+dt), minus any initial frozen span. *)
  let advance_volumes dt =
    let dt =
      if !frozen_until <= !now then dt
      else max 0. (dt -. (min !frozen_until (!now +. dt) -. !now))
    in
    if dt > 0. then
      List.iter
        (fun lt ->
          if not lt.resolved then
            Array.iter
              (fun f ->
                if f.rate > 0. && f.remaining > 0. then begin
                  let moved = min f.remaining (f.rate *. dt) in
                  f.remaining <- f.remaining -. moved;
                  moved_total := !moved_total +. moved;
                  Array.iter (fun e -> entity_bits.(e) <- entity_bits.(e) +. moved) f.route
                end)
              lt.lflows)
        !active
  in
  let next_event_time () =
    let t_arr =
      if !next_pending < Array.length pending then pending.(!next_pending).Task.arrival
      else infinity
    in
    let t_arr =
      match !injected with [] -> t_arr | t :: _ -> min t_arr t.Task.arrival
    in
    let t_fg = min (Foreground.next_change fg) (Fault.next_change fstate) in
    let t_fg =
      match dstate with None -> t_fg | Some d -> min t_fg (Detector.next_change d)
    in
    let t_fg = min t_fg !next_retry in
    let t_dl, t_cmp =
      List.fold_left
        (fun (dl, cmp) lt ->
          if lt.resolved then (dl, cmp)
          else begin
            let dl = if lt.failed then dl else min dl lt.task.Task.deadline in
            let transfer_start = max !now !frozen_until in
            let cmp =
              Array.fold_left
                (fun c f ->
                  if f.rate > 0. && f.remaining > 0. then
                    min c (transfer_start +. (f.remaining /. f.rate))
                  else c)
                cmp lt.lflows
            in
            (dl, cmp)
          end)
        (infinity, infinity) !active
    in
    (* Every live flow has more than [volume_epsilon] left, so a
       completion time at or before [now] means [remaining /. rate] fell
       below the clock's resolution (a clock past ~1e7 s): step one ulp,
       so [advance_volumes] moves the residual instead of stalling. *)
    let t_cmp = if t_cmp > !now then t_cmp else Float.succ !now in
    min (min t_arr t_fg) (min t_dl t_cmp)
  in
  let stalls = ref 0 in
  let unresolved () = List.exists (fun lt -> not lt.resolved) !active in
  (* With a closed-loop repair hook the run outlives the workload: a
     crash after the last task still generates repair traffic. *)
  let work_remains () =
    unresolved ()
    || !next_pending < Array.length pending
    || !injected <> []
    || Option.is_some on_failure
       && (not (Fault.exhausted fstate)
          ||
          (* With a detector the repair hook answers confirmations, which
             trail the physical crashes by the detection latency. *)
          match dstate with Some d -> not (Detector.exhausted d) | None -> false)
  in
  replan ();
  update_retry_clocks ();
  while work_remains () do
    let t_next = next_event_time () in
    if not (Float.is_finite t_next) then
      failwith "Engine.run: no future event but tasks remain";
    let dt = max 0. (t_next -. !now) in
    advance_volumes dt;
    now := max !now t_next;
    (* [now] and [remaining] moved: every cached Phase I load is stale. *)
    incr load_epoch;
    Foreground.advance fg !now;
    let g = Foreground.generation fg in
    if g <> !fg_generation then begin
      (* A redraw moves every entity's availability at once. *)
      fg_generation := g;
      for e = 0 to nent - 1 do
        mark_dirty e
      done
    end;
    let processed = ref 0 in
    (* Completions first: a flow finishing exactly at the deadline counts. *)
    List.iter
      (fun lt ->
        if not lt.resolved then begin
          (* A flow within [volume_epsilon] of done, or drained to exactly
             zero during [advance_volumes] but still holding a rate. *)
          Array.iter
            (fun f ->
              if f.remaining <= volume_epsilon && (f.remaining > 0. || f.rate > 0.) then
                ignore (retire lt f))
            lt.lflows;
          if Array.for_all (fun f -> f.remaining <= 0.) lt.lflows then begin
            (* A task that already failed keeps its failure outcome even
               if a deadline-blind heuristic finishes it later — and the
               volume it pulled past the deadline is pure waste. *)
            if not lt.failed then begin
              record_outcome lt ~completed:true;
              if Hashtbl.mem swapped_tasks lt.task.Task.id then incr tasks_rescued
            end
            else wasted := !wasted +. Task.total_volume lt.task;
            lt.resolved <- true;
            incr processed
          end
        end)
      !active;
    (* Deadline expiries: record the failure (and the remaining-volume
       metric) now; abandon the flows only if the algorithm has
       admission control, otherwise they keep occupying the network. *)
    List.iter
      (fun lt ->
        if (not lt.resolved) && (not lt.failed)
           && lt.task.Task.deadline <= !now +. time_epsilon
        then begin
          record_outcome lt ~completed:false;
          lt.failed <- true;
          (* everything an abandoned task pulled is waste *)
          if alg.Algorithm.abandon_expired then retire_task lt wasted;
          incr processed
        end)
      !active;
    (* Faults due now: normalize the whole batch, then kill / re-home /
       lose, then let the repair hook answer each crash. With a
       detector the physical changes only move capacity multipliers
       (dirty-marking the entities); the control-plane reaction — kills,
       re-homes, losses, repair injection — waits for the confirmation
       events below. *)
    (match Fault.advance fstate !now with
     | [] -> ()
     | changes ->
       incr processed;
       List.iter
         (function
           | Fault.Crashed s | Fault.Recovered s -> mark_dirty (Topology.server_entity topo s)
           | Fault.Degraded e | Fault.Restored e -> mark_dirty e)
         changes;
       let newly_crashed =
         List.filter_map (function Fault.Crashed s -> Some s | _ -> None) changes
       in
       if Option.is_none dstate then settle newly_crashed);
    (* Detection events due now: update beliefs and counters, then
       settle the servers confirmed dead at this instant exactly as the
       omniscient path settles physical crash batches. *)
    (match dstate with
     | None -> ()
     | Some ds -> (
       match Detector.advance ds !now with
       | [] -> ()
       | devents ->
         incr processed;
         List.iter
           (function
             | Detector.Suspected s ->
               incr suspicions;
               Log.debug (fun m -> m "t=%.3f detector suspects server %d" !now s)
             | Detector.Cleared s ->
               incr false_suspicions;
               Log.debug (fun m -> m "t=%.3f suspicion of server %d cleared" !now s)
             | Detector.Confirmed s ->
               incr detections;
               Log.debug (fun m -> m "t=%.3f server %d confirmed dead" !now s)
             | Detector.Seen_alive s ->
               Log.debug (fun m -> m "t=%.3f server %d seen alive again" !now s))
           devents;
         settle (List.filter_map (function Detector.Confirmed s -> Some s | _ -> None) devents)));
    processed := !processed + retry_pass ();
    (* Arrivals: gather the batch due now and present it in static-slack
       order — the batch analogue of Phase II's urgency ranking, so a
       congestion-aware Phase I sees the most constrained task's flows
       first (each spawn's view includes the earlier ones). *)
    let batch = ref [] in
    while
      !next_pending < Array.length pending
      && pending.(!next_pending).Task.arrival <= !now +. time_epsilon
    do
      batch := pending.(!next_pending) :: !batch;
      incr next_pending;
      incr processed
    done;
    let rec drain_injected () =
      match !injected with
      | t :: rest when t.Task.arrival <= !now +. time_epsilon ->
        injected := rest;
        batch := t :: !batch;
        incr processed;
        drain_injected ()
      | _ -> ()
    in
    drain_injected ();
    let static_slack (t : Task.t) =
      let dest_cap =
        (Topology.entity topo (Topology.server_entity topo t.Task.destination))
          .Topology.capacity
      in
      t.Task.deadline -. t.Task.arrival -. (Task.total_volume t /. dest_cap)
    in
    List.stable_sort (fun a b -> Float.compare (static_slack a) (static_slack b)) !batch
    |> List.iter spawn;
    active := List.filter (fun lt -> not lt.resolved) !active;
    if !processed = 0 && dt <= 0. then begin
      incr stalls;
      if !stalls > 1000 then failwith "Engine.run: stalled (no event progress)"
    end
    else stalls := 0;
    incr events;
    replan ();
    (* Rates just moved: start/refresh/clear stall timers against the
       new allocation so the next event horizon sees them. *)
    update_retry_clocks ()
  done;
  let horizon = max !now 1e-9 in
  let util_sum = ref 0. in
  Array.iteri
    (fun e bits ->
      let raw = (Topology.entity topo e).Topology.capacity in
      util_sum := !util_sum +. (bits /. (raw *. horizon)))
    entity_bits;
  let outcomes_list =
    Array.to_list pending @ List.rev !injected_all
    |> List.sort (fun (a : Task.t) b -> Int.compare a.Task.id b.Task.id)
    (* lint: allow partial-stdlib — the main loop runs until every
       pending or injected task has been recorded: each task ends in
       exactly one of resolve/expire/fail/lose, and all four write
       [outcomes] *)
    |> List.map (fun (t : Task.t) -> Hashtbl.find outcomes t.Task.id)
  in
  { Metrics.algorithm = alg.Algorithm.name;
    outcomes = outcomes_list;
    horizon;
    transferred = !moved_total;
    wasted = !wasted;
    utilization = (if nent = 0 then 0. else !util_sum /. float_of_int nent);
    plan_time = !plan_time;
    plan_calls = !plan_calls;
    events = !events;
    clamp_events = !clamp_events;
    flows_killed = !flows_killed;
    tasks_rehomed = !tasks_rehomed;
    tasks_lost = !tasks_lost;
    swaps_attempted = !swaps_attempted;
    swaps_successful = !swaps_successful;
    tasks_rescued = !tasks_rescued;
    tasks_shed_early = !tasks_shed_early;
    shed_volume = !shed_volume;
    suspicions = !suspicions;
    false_suspicions = !false_suspicions;
    detections = !detections;
    bytes_resumed = !bytes_resumed;
    retries_attempted = !retries_attempted;
    retries_exhausted = !retries_exhausted
  }
