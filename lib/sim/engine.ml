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

type live_task = {
  seq : int;  (* spawn sequence number; [active] is sorted by it, ascending *)
  pos : int;  (* index in the arrival-sorted task array, and of the task's outcome *)
  task : Task.t;
  first : int;  (* flow-table position of slot 0; slot [i] is at [first + i] *)
  slots : int;  (* the task's [k] fetches *)
  wd : Watchdog.tstate;  (* swap budget, backoff and abandoned sources *)
  mutable resolved : bool;  (* flows gone: completed or abandoned *)
  mutable failed : bool;  (* deadline passed with volume outstanding *)
}

(* The flow table: one position per fetch, struct of arrays, grown on
   demand. A task's slots take consecutive positions at spawn and a
   replacement fetch (re-home, swap) reuses its slot's position, so
   position order is (task seq, slot) order. [back.(p).(i)] is [p]'s
   index in the bucket of [route.(p).(i)], or -1 once [p] has left the
   buckets; [vrec.(p)] is the view record last built for [p]. *)
type table = {
  mutable fid : int array;
  mutable owner : live_task array;
  mutable source : int array;
  mutable route : int array array;  (* capacity entities consumed; fixed per fetch *)
  mutable back : int array array;
  mutable timer : Retry.fstate option array;  (* retry stall timer, armed at the first stall *)
  mutable remaining : float array;
  mutable rate : float array;
  mutable vrec : Problem.flow array;
  mutable size : int;  (* positions handed out *)
}

let volume_epsilon = 1e-6  (* megabits; ~0.1 byte *)
let time_epsilon = 1e-9

(* [a] if it has room for [need] entries, else a copy of it at least
   twice as long, filled out with [fill]. *)
let grow a need fill =
  let n = Array.length a in
  if n >= need then a
  else begin
    let b = Array.make (if need >= 2 * n then need else 2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  end

(* Sort [a.(lo) .. a.(hi - 1)] ascending through [tmp], which must be
   at least [hi] long: a merge sort with insertion sort on short runs. *)
let rec sort_range (a : int array) (tmp : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_range a tmp lo mid;
    sort_range a tmp mid hi;
    if a.(mid - 1) > a.(mid) then begin
      (* Merge the left half, moved to [tmp], with the right half in
         place; the write index never passes the right half's read index. *)
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid && !j < hi do
        if tmp.(!i) <= a.(!j) then begin
          a.(!k) <- tmp.(!i);
          incr i
        end
        else begin
          a.(!k) <- a.(!j);
          incr j
        end;
        incr k
      done;
      while !i < mid do
        a.(!k) <- tmp.(!i);
        incr i;
        incr k
      done
    end
  end

let rec sorted_from (a : int array) n i = i >= n || (a.(i - 1) < a.(i) && sorted_from a n (i + 1))

(* The index of [e] in [route], which holds it. *)
let rec route_index (route : int array) e i = if route.(i) = e then i else route_index route e (i + 1)

let rec mem_from (x : int) a i = i < Array.length a && (a.(i) = x || mem_from x a (i + 1))

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
    ?(faults = Fault.empty) ?detector ?retry ?watchdog topo (alg : Algorithm.t) tasks =
  let pending = Array.of_list (List.sort Task.compare_arrival tasks) in
  let validate_task (t : Task.t) =
    let ok s = s >= 0 && s < Topology.servers topo in
    if not (ok t.Task.destination && Array.for_all ok t.Task.sources) then
      invalid_arg "Engine.run: task references servers outside the topology"
  in
  Array.iter validate_task pending;
  (* Positions in [pending] in task id order, the order of the report's
     outcomes; ids must be unique. *)
  let by_id = Array.init (Array.length pending) Fun.id in
  let id i = pending.(i).Task.id in
  Array.stable_sort (fun a b -> Int.compare (id a) (id b)) by_id;
  for j = 1 to Array.length by_id - 1 do
    if id by_id.(j - 1) = id by_id.(j) then
      invalid_arg (Printf.sprintf "Engine.run: two tasks share the id %d" (id by_id.(j)))
  done;
  let fg = Foreground.create (S3_util.Prng.create config.seed) topo config.foreground in
  let fstate = Fault.start topo faults in
  (* Control-plane failure knowledge. Without a detector the engine is
     omniscient (settles crashes at the injection instant, the pre-
     detection behaviour, bit-identical); with one, every reaction —
     flow kills, re-homes, losses, candidate eligibility — keys off the
     detector's beliefs instead of the physical fault state, while rates
     keep being clamped by the physical multipliers (bytes keep flowing
     into a dead NIC at rate zero until the detector notices). *)
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
  let next_pending = ref 0 in
  let next_flow_id = ref 0 in
  (* [recompute]'s rate hand-off, indexed by flow id; see there. *)
  let rate_buf = ref [||] and stamp_buf = ref [||] and rate_gen = ref 0 in
  let next_seq = ref 0 in
  let now = ref 0. in
  (* Each task's outcome, by position in [pending]. A task that never
     spawns keeps the lost-at-arrival record it starts with. *)
  let outcomes =
    Array.map
      (fun (t : Task.t) ->
        { Metrics.task = t;
          sources = [||];
          completed = false;
          finish_time = t.Task.deadline;
          remaining = Task.total_volume t
        })
      pending
  in
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
  let tb =
    { fid = [||];
      owner = [||];
      source = [||];
      route = [||];
      back = [||];
      timer = [||];
      remaining = [||];
      rate = [||];
      vrec = [||];
      size = 0
    }
  in
  (* The live tasks, ascending by seq: [!active.(0 .. !nactive - 1)]. *)
  let active = ref [||] and nactive = ref 0 in
  (* Per-entity accounting, kept exact by routing every rate change
     through [set_flow_rate]: usage.(e) = sum of rates of live flows
     whose route crosses e. *)
  let usage = Array.make nent 0. in
  (* ---- O(affected) indexes ----
     [bucket.(e)] holds, in its first [bucket_len.(e)] cells, the table
     position of every live flow whose route crosses [e], in no
     particular order, so anything per-entity — congestion loads,
     clamp victims — is read off the bucket instead of scanning all
     flows. Buckets are maintained eagerly at every spawn / kill /
     completion, mirroring the view predicate exactly: a flow is
     bucketed iff its task is unresolved and it has volume remaining.
     A position is appended at spawn and swap-removed through its
     back-pointer. *)
  let bucket = Array.make nent [||] and bucket_len = Array.make nent 0 in
  let sort_tmp = ref [||] in
  let index_add p =
    let route = tb.route.(p) and back = tb.back.(p) in
    for i = 0 to Array.length route - 1 do
      let e = route.(i) in
      let n = bucket_len.(e) in
      if n = Array.length bucket.(e) then bucket.(e) <- grow bucket.(e) (n + 1) 0;
      bucket.(e).(n) <- p;
      back.(i) <- n;
      bucket_len.(e) <- n + 1
    done
  in
  (* Phase I load cache (see [entity_load]): [load_value.(e)] is valid
     iff [load_stamp.(e) = !load_epoch]. *)
  let load_value = Array.make nent 0. in
  let load_stamp = Array.make nent (-1) in
  let load_epoch = ref 0 in
  let invalidate_route p =
    let route = tb.route.(p) in
    for i = 0 to Array.length route - 1 do
      load_stamp.(route.(i)) <- -1
    done
  in
  (* Take [p] out of every bucket it is in (a no-op for a position
     already out) and invalidate its route's loads. *)
  let index_remove p =
    let route = tb.route.(p) and back = tb.back.(p) in
    for i = 0 to Array.length route - 1 do
      let e = route.(i) and j = back.(i) in
      if j >= 0 then begin
        let b = bucket.(e) and last = bucket_len.(e) - 1 in
        let q = b.(last) in
        b.(j) <- q;
        tb.back.(q).(route_index tb.route.(q) e 0) <- j;
        bucket_len.(e) <- last;
        back.(i) <- -1
      end;
      load_stamp.(e) <- -1
    done
  in
  (* Dirty capacity entities: usage or availability may have moved since
     the last clamp, so only these need re-checking. The invariant
     "not dirty => usage <= available + 1e-6" is restored by every
     clamp and preserved by marking on every rate change, fault change
     and foreground redraw. The marked entities are [dirty_stack.(0 ..
     ndirty - 1)]. *)
  let dirty = Array.make nent false in
  let dirty_stack = Array.make nent 0 and ndirty = ref 0 in
  let mark_dirty e =
    if not dirty.(e) then begin
      dirty.(e) <- true;
      dirty_stack.(!ndirty) <- e;
      incr ndirty
    end
  in
  let fg_generation = ref (Foreground.generation fg) in
  (* Put bucket [e] in (task seq, slot) order — the order of a view's
     flow list, which is position order — and repoint the moved
     entries' back-pointers. *)
  let sort_bucket e =
    let b = bucket.(e) and n = bucket_len.(e) in
    if not (sorted_from b n 1) then begin
      sort_tmp := grow !sort_tmp n 0;
      sort_range b !sort_tmp 0 n;
      for j = 0 to n - 1 do
        let q = b.(j) in
        tb.back.(q).(route_index tb.route.(q) e 0) <- j
      done
    end
  in
  (* Per-entity congestion load for Phase I: the sum of finite LRBs of
     the bucket's flows, folded in view order — (task seq, slot)
     ascending is exactly the order the flow list lists them, so the
     lazy accessor and an eager scan of the flow list accumulate the
     same floats in the same order and agree bit-for-bit (the test
     suite checks this at every Phase I call). Each LRB is
     [Rtf.lrb]'s operations on a positive volume.

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
      sort_bucket e;
      let b = bucket.(e) and t_now = !now in
      let acc = ref 0. in
      for j = 0 to bucket_len.(e) - 1 do
        let p = b.(j) in
        let lt = tb.owner.(p) and m = tb.remaining.(p) in
        if (not lt.resolved) && m > 0. then begin
          let dl = lt.task.Task.deadline in
          let l = if dl <= t_now then infinity else m /. (dl -. t_now) in
          if Float.is_finite l then acc := !acc +. l
        end
      done;
      load_value.(e) <- !acc;
      load_stamp.(e) <- !load_epoch;
      !acc
    end
  in
  let append_load lt p =
    let m = tb.remaining.(p) in
    if (not lt.resolved) && m > 0. then begin
      let dl = lt.task.Task.deadline and t_now = !now in
      let l = if dl <= t_now then infinity else m /. (dl -. t_now) in
      if Float.is_finite l then begin
        let route = tb.route.(p) in
        for i = 0 to Array.length route - 1 do
          let e = route.(i) in
          if load_stamp.(e) = !load_epoch then load_value.(e) <- load_value.(e) +. l
        done
      end
    end
  in
  let load = Some entity_load in
  (* [p]'s view record: the one last built while its volume is
     unchanged, else a fresh one, kept for the next view. *)
  let view_flow p =
    let r = tb.vrec.(p) and m = tb.remaining.(p) in
    if r.Problem.flow_id = tb.fid.(p) && Float.equal r.Problem.remaining m then r
    else begin
      let r =
        { Problem.flow_id = tb.fid.(p);
          task = tb.owner.(p).task;
          source = tb.source.(p);
          remaining = m
        }
      in
      tb.vrec.(p) <- r;
      r
    end
  in
  (* The live flows, newest task first and each task's slots from the
     last down, prepended: the list comes out oldest task first, slots
     ascending. *)
  let view_flows () =
    let acc = ref [] in
    for a = !nactive - 1 downto 0 do
      let lt = !active.(a) in
      if not lt.resolved then
        for p = lt.first + lt.slots - 1 downto lt.first do
          if tb.remaining.(p) > 0. then acc := view_flow p :: !acc
        done
    done;
    !acc
  in
  let make_view () =
    (* The flow list is the expensive part of a view — O(all live
       flows) to build — and Phase-I source selection with the [load]
       index below never reads it, so it stays a thunk: spawns that
       only probe congestion cost nothing here, allocate-time
       algorithms force it once before any further mutation (the
       engine never hands a view across a state change). *)
    { Problem.now = !now; topo; flows = lazy (view_flows ()); available = avail; load }
  in
  let[@inline] set_flow_rate p r =
    let old = tb.rate.(p) in
    if not (Float.equal r old) then begin
      let d = r -. old in
      tb.rate.(p) <- r;
      let route = tb.route.(p) in
      for i = 0 to Array.length route - 1 do
        let e = route.(i) in
        usage.(e) <- usage.(e) +. d;
        mark_dirty e
      done
    end
  in
  (* Scale any over-committed entity's flows down proportionally; a
     correct algorithm never triggers this. *)
  let clamp_entity e a =
    Log.warn (fun m ->
        m "t=%.3f clamping entity %d: allocated %.3f > available %.3f" !now e usage.(e) a);
    let s = a /. usage.(e) in
    let scale = if 0. >= s then 0. else s in
    (* Scaling is independent per flow, but a stable victim order keeps
       logs and any future coupled updates replayable. *)
    sort_bucket e;
    let b = bucket.(e) in
    for j = 0 to bucket_len.(e) - 1 do
      let p = b.(j) in
      let r = tb.rate.(p) in
      if (not tb.owner.(p).resolved) && r > 0. && tb.remaining.(p) > 0. then
        set_flow_rate p (r *. scale)
    done
  in
  (* Only dirty entities can be violated (clean ones kept their usage
     and availability since the last clamp, which left them satisfied).
     Each pass snapshots the dirty set in ascending entity order, and
     scaling re-marks the victims' routes for the next pass. *)
  let snapshot = Array.make nent 0 in
  let clamp_rates () =
    let clamped = ref false in
    let pass () =
      let n = !ndirty in
      Array.blit dirty_stack 0 snapshot 0 n;
      ndirty := 0;
      sort_tmp := grow !sort_tmp n 0;
      sort_range snapshot !sort_tmp 0 n;
      for j = 0 to n - 1 do
        dirty.(snapshot.(j)) <- false
      done;
      let violated = ref false in
      for j = 0 to n - 1 do
        let e = snapshot.(j) in
        let a = avail e in
        if usage.(e) > a +. 1e-6 then begin
          violated := true;
          clamped := true;
          clamp_entity e a
        end
      done;
      !violated
    in
    let rec go n = if n > 0 && pass () then go (n - 1) in
    go 10;
    if !clamped then incr clamp_events
  in
  (* The ideal data plane shapes every rate to itself, so its pass
     changes nothing and is skipped. *)
  let shaping = not (data_plane == ideal_data_plane) in
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
    let gen = !rate_gen and nflows = !next_flow_id in
    if Array.length !rate_buf < nflows then begin
      let size = max nflows (2 * Array.length !rate_buf) in
      rate_buf := Array.make size 0.;
      stamp_buf := Array.make size 0
    end;
    let rate_of = !rate_buf and rate_stamp = !stamp_buf in
    let rec hand_off = function
      | [] -> ()
      | (fid, r) :: rest ->
        if fid >= 0 && fid < nflows then begin
          rate_of.(fid) <- (if 0. >= r then 0. else r);
          rate_stamp.(fid) <- gen
        end;
        hand_off rest
    in
    hand_off rates;
    (* Every rate change flows through [set_flow_rate], so the usage
       table and the dirty set stay exact. Dead flows (resolved task or
       no volume left) already hold rate 0 and are skipped. *)
    for a = !nactive - 1 downto 0 do
      let lt = !active.(a) in
      if not lt.resolved then
        for p = lt.first to lt.first + lt.slots - 1 do
          if tb.remaining.(p) > 0. then begin
            let fid = tb.fid.(p) in
            set_flow_rate p (if rate_stamp.(fid) = gen then rate_of.(fid) else 0.)
          end
        done
    done;
    clamp_rates ();
    (* Data-plane distortion: applied after clamping and only ever
       downward, so feasibility is preserved. *)
    if shaping then
      for a = !nactive - 1 downto 0 do
        let lt = !active.(a) in
        for p = lt.first to lt.first + lt.slots - 1 do
          let r = tb.rate.(p) in
          if r > 0. then begin
            let shaped = data_plane.shape_rate ~flow_id:tb.fid.(p) r in
            let m = if r <= shaped then r else shaped in
            set_flow_rate p (if 0. >= m then 0. else m)
          end
        done
      done;
    let pause = data_plane.control_latency () in
    if pause > 0. then begin
      let until = !now +. pause in
      if not (!frozen_until >= until) then frozen_until := until
    end;
    match on_event with
    | None -> ()
    | Some hook -> hook !now view rates
  in
  let record_outcome lt ~completed =
    Log.debug (fun m ->
        m "t=%.3f task#%d %s" !now lt.task.Task.id
          (if completed then "completed" else "missed deadline"));
    let left = ref 0. in
    if not completed then
      for p = lt.first to lt.first + lt.slots - 1 do
        let m = tb.remaining.(p) in
        left := !left +. if 0. >= m then 0. else m
      done;
    outcomes.(lt.pos) <-
      { Metrics.task = lt.task;
        sources = Array.sub tb.source lt.first lt.slots;
        completed;
        finish_time = (if completed then !now else lt.task.Task.deadline);
        remaining = !left
      }
  in
  (* The task's outcome slot already holds the lost record. *)
  let record_lost_at_arrival (t : Task.t) =
    Log.debug (fun m -> m "t=%.3f task#%d unrecoverable at arrival" !now t.Task.id);
    incr tasks_lost
  in
  (* End a fetch: take its rate out of the usage table, zero its volume
     and drop it from the buckets. What it delivered is the task's
     volume less its [remaining], read before the call. *)
  let retire p =
    set_flow_rate p 0.;
    tb.remaining.(p) <- 0.;
    index_remove p
  in
  (* End every fetch of [lt], slot by slot, booking what each delivered
     into [counter], and resolve the task. *)
  let retire_task lt counter =
    for p = lt.first to lt.first + lt.slots - 1 do
      let delivered = lt.task.Task.volume -. tb.remaining.(p) in
      retire p;
      counter := !counter +. delivered
    done;
    lt.resolved <- true
  in
  (* End a fetch that is about to be replaced (crash re-home, watchdog
     swap, retry re-home): with resume its progress carries into the
     replacement ([bytes_resumed]; the conservation law's
     completed-volume side absorbs it because the replacement only
     fetches the remainder), without it the progress is written off. *)
  let kill_for_replacement lt p =
    let progress = lt.task.Task.volume -. tb.remaining.(p) in
    retire p;
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
    for i = 0 to Array.length answer - 1 do
      let s = answer.(i) in
      if not (mem_from s allowed 0) then
        invalid id s (Printf.sprintf "%s %s %s source%s" name verb outsider suffix);
      for j = 0 to i - 1 do
        if answer.(j) = s then
          invalid id s (Printf.sprintf "%s %s a duplicate source%s" name verb suffix)
      done
    done
  in
  (* Start a fresh fetch of [remaining] megabits from [source] at
     position [p] of [lt]'s slots; it joins no bucket yet. *)
  let place_flow lt p ~remaining source =
    let flow_id = !next_flow_id in
    incr next_flow_id;
    let route = Topology.route_array topo ~src:source ~dst:lt.task.Task.destination in
    tb.fid.(p) <- flow_id;
    tb.owner.(p) <- lt;
    tb.source.(p) <- source;
    tb.route.(p) <- route;
    (* A reused position left every bucket, so its pointers read -1. *)
    if Array.length tb.back.(p) <> Array.length route then
      tb.back.(p) <- Array.make (Array.length route) (-1);
    tb.timer.(p) <- None;
    tb.remaining.(p) <- remaining;
    tb.rate.(p) <- 0.;
    tb.vrec.(p) <- { Problem.flow_id; task = lt.task; source; remaining }
  in
  (* Positions the arrival batch being spawned may take, all of which a
     growth of the table makes room for at once. *)
  let room = ref 0 in
  (* Room for positions [0, need), grown with [lt] and [r] as fillers. *)
  let reserve need lt r =
    tb.fid <- grow tb.fid need 0;
    tb.owner <- grow tb.owner need lt;
    tb.source <- grow tb.source need 0;
    tb.route <- grow tb.route need [||];
    tb.back <- grow tb.back need [||];
    tb.timer <- grow tb.timer need None;
    tb.remaining <- grow tb.remaining need 0.;
    tb.rate <- grow tb.rate need 0.;
    tb.vrec <- grow tb.vrec need r
  in
  (* Candidates of [t] that are not excluded and not in [busy]. *)
  let spare_sources (t : Task.t) busy =
    Array.to_list t.Task.sources
    |> List.filter (fun s -> (not (source_excluded s)) && not (List.mem s busy))
    |> Array.of_list
  in
  (* What a replacement fetch for position [p] must still move,
     captured before the kill zeroes it. *)
  let replacement_remaining lt p = if resume then tb.remaining.(p) else lt.task.Task.volume in
  (* Replace the fetches in [slots] of [lt] (crash re-home, watchdog
     swap, retry re-home): end each, then — against a view taken after
     the kills — ask [reselect] for one new source per slot among
     [eligible], check the answer, and start fresh fetches at the
     slots' positions, in order. [suffix] tags the Invalid_selection
     details with the calling site. Returns the new sources. *)
  let replace_slots reselect lt ~eligible ~slots ~suffix =
    let need = List.length slots in
    let rem = Array.of_list (List.map (fun i -> replacement_remaining lt (lt.first + i)) slots) in
    List.iter (fun i -> kill_for_replacement lt (lt.first + i)) slots;
    let view = make_view () in
    let repl = reselect view lt.task ~eligible ~need ~remaining:rem in
    check_answer ~verb:"reselected" ~outsider:"an ineligible" ~suffix lt.task.Task.id repl ~need
      ~allowed:eligible;
    List.iteri
      (fun j i ->
        let p = lt.first + i in
        place_flow lt p ~remaining:rem.(j) repl.(j);
        index_add p;
        invalidate_route p)
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
    for p = lt.first to lt.first + lt.slots - 1 do
      if tb.remaining.(p) > 0. then incr flows_killed
    done;
    retire_task lt wasted;
    incr tasks_lost
  in
  let spawn pos =
    let t = pending.(pos) in
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
        Log.debug (fun m ->
            m "t=%.3f spawn %a sources=[%s]" !now Task.pp t
              (String.concat ";" (Array.to_list (Array.map string_of_int sources))));
        let seq = !next_seq in
        incr next_seq;
        let k = Array.length sources and first = tb.size in
        let lt =
          { seq;
            pos;
            task = t;
            first;
            slots = k;
            wd = Watchdog.fresh ();
            resolved = false;
            failed = false
          }
        in
        if Array.length tb.fid < first + k then
          reserve !room lt { Problem.flow_id = -1; task = t; source = -1; remaining = 0. };
        tb.size <- first + k;
        for i = 0 to k - 1 do
          place_flow lt (first + i) ~remaining:t.Task.volume sources.(i)
        done;
        active := grow !active (!nactive + 1) lt;
        !active.(!nactive) <- lt;
        incr nactive;
        for p = first to first + k - 1 do
          index_add p;
          append_load lt p
        done
      end
    end
  in
  (* Keep the unresolved tasks of [active], in order. *)
  let drop_resolved () =
    let n = ref 0 in
    for a = 0 to !nactive - 1 do
      let lt = !active.(a) in
      if not lt.resolved then begin
        !active.(!n) <- lt;
        incr n
      end
    done;
    nactive := !n
  in
  (* Settle a batch of servers confirmed dead (physically, or by the
     detector): lose tasks whose destination went down; for tasks that
     lost sources, ask the algorithm to re-home the affected subtasks
     onto surviving candidates, or lose the task when that is
     impossible. The batch is normalized first, so eligibility always
     reflects the end-of-batch state (a crash-and-recover at one
     instant still loses the data). *)
  let settle crashed_batch =
    let crashed s = List.mem s crashed_batch in
    let crash_check lt =
      if lt.resolved then ()
      else if crashed lt.task.Task.destination then lose lt
      else
        let dead_src i =
          let p = lt.first + i in
          tb.remaining.(p) > 0. && crashed tb.source.(p)
        in
        match List.init lt.slots Fun.id |> List.filter dead_src with
        | [] -> ()
        | slots -> (
          let need = List.length slots in
          (* Surviving candidates not already serving (or having
             served) one of this task's chunks. *)
          let eligible =
            spare_sources lt.task
              (List.init lt.slots Fun.id
              |> List.filter_map (fun i ->
                     if dead_src i then None else Some tb.source.(lt.first + i)))
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
    (* Newest task first: a re-home spawns only onto surviving
       sources, so no task becomes affected while the walk runs. *)
    match crashed_batch with
    | [] -> ()
    | _ :: _ ->
      for a = !nactive - 1 downto 0 do
        crash_check !active.(a)
      done
  in
  (* ---- deadline watchdog (see Watchdog and DESIGN.md §11) ---- *)
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
    let transfer_start =
      let t_now = !now and frozen = !frozen_until in
      if t_now >= frozen then t_now else frozen
    in
    (* Inlined, so that the projection boxes no float. *)
    let[@inline] projected p =
      let m = tb.remaining.(p) in
      if m <= 0. then neg_infinity
      else
        let r = tb.rate.(p) in
        if r > 0. then transfer_start +. (m /. r) else infinity
    in
    (* [lt] has slots projected to finish after [limit]: intervene. *)
    let intervene lt limit =
      let t = lt.task in
      let dl = t.Task.deadline in
      (* The late slots, ascending. *)
      let stragglers = ref [] in
      for i = lt.slots - 1 downto 0 do
        if projected (lt.first + i) > limit then stragglers := i :: !stragglers
      done;
      let stragglers = !stragglers in
      let st = lt.wd in
      (* Spare sources: never crashed, not currently fetching a
         chunk, and not already swapped away from (a source the
         watchdog abandoned as too slow stays abandoned). *)
      let eligible =
        let busy = ref st.Watchdog.abandoned in
        for p = lt.first to lt.first + lt.slots - 1 do
          busy := tb.source.(p) :: !busy
        done;
        spare_sources t !busy
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
             let flow_doomed p =
               let best = ref (through tb.route.(p)) in
               for j = 0 to Array.length spare - 1 do
                 best := if !best >= spare.(j) then !best else spare.(j)
               done;
               tb.remaining.(p) > !best +. volume_epsilon
             in
             for p = lt.first to lt.first + lt.slots - 1 do
               let m = tb.remaining.(p) in
               if m > 0. then begin
                 let route = tb.route.(p) in
                 for j = 0 to Array.length route - 1 do
                   let e = route.(j) in
                   if on_every_route e spare_routes 0 then begin
                     let d = if sc.demand_stamp.(e) = stamp then sc.demand_at.(e) else 0. in
                     sc.demand_at.(e) <- d +. m;
                     sc.demand_stamp.(e) <- stamp
                   end
                 done
               end
             done;
             let overloaded p =
               let over = ref false and route = tb.route.(p) in
               for j = 0 to Array.length route - 1 do
                 let e = route.(j) in
                 if sc.demand_stamp.(e) = stamp && sc.demand_at.(e) > bits e +. volume_epsilon
                 then over := true
               done;
               !over
             in
             let rec any test p =
               p < lt.first + lt.slots
               && ((tb.remaining.(p) > 0. && test p) || any test (p + 1))
             in
             any flow_doomed lt.first || any overloaded lt.first
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
          let want = min (List.length stragglers) (cfg.Watchdog.max_swaps - st.Watchdog.swaps) in
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
                (fun acc i -> Float.max acc tb.remaining.(lt.first + i))
                0. stragglers
            else t.Task.volume
          in
          let eligible =
            Array.to_list eligible
            |> List.filter (fun s -> Rtf.path_feasible view t ~src:s ~remaining:hedge_rem)
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
            let route_degraded p = Array.exists (fun e -> Fault.degraded fstate e) tb.route.(p) in
            let slots =
              List.map
                (fun i ->
                  let p = lt.first + i in
                  ((if route_degraded p then 0 else 1), -.projected p, i))
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
            List.iter (fun i -> Watchdog.abandon st tb.source.(lt.first + i)) slots;
            let repl = replace_slots reselect lt ~eligible ~slots ~suffix:" (watchdog swap)" in
            Watchdog.note_intervention cfg st ~now:!now ~replaced:n;
            swaps_successful := !swaps_successful + n;
            Log.debug (fun m ->
                m "t=%.3f task#%d watchdog swapped %d straggler(s) onto [%s]" !now t.Task.id n
                  (String.concat ";" (Array.to_list (Array.map string_of_int repl))));
            changed := true
          end
        | _ -> ()
      end
    in
    (* Oldest task first. *)
    for a = 0 to !nactive - 1 do
      let lt = !active.(a) in
      if (not lt.resolved) && not lt.failed then begin
        let limit = lt.task.Task.deadline +. cfg.Watchdog.slack +. time_epsilon in
        let late = ref false in
        for p = lt.first to lt.first + lt.slots - 1 do
          if projected p > limit then late := true
        done;
        if !late then intervene lt limit
      end
    done;
    if !changed then drop_resolved ();
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
     Each flow's stall timer is armed at its first stall, so a flow
     spawned since the last refresh has none yet. A flow is stalled
     when it has volume left, holds no rate, and its route crosses a
     degraded entity — the transient-outage signature (crashes are the
     detector's business). Timers are refreshed after every replan and
     fire through the event loop like any other event source. *)
  let flow_stalled p =
    tb.remaining.(p) > 0. && tb.rate.(p) <= 0.
    && Array.exists (fun e -> Fault.degraded fstate e) tb.route.(p)
  in
  (* The earliest timer deadline, as of the last [update_retry_clocks]. *)
  let next_retry = ref infinity in
  let update_retry_clocks () =
    match retry with
    | None -> ()
    | Some rc ->
      let due = ref infinity in
      let note st = due := Float.min !due (Retry.next_deadline rc st) in
      for a = !nactive - 1 downto 0 do
        let lt = !active.(a) in
        if (not lt.resolved) && not lt.failed then
          for p = lt.first to lt.first + lt.slots - 1 do
            if tb.remaining.(p) > 0. then
              match tb.timer.(p) with
              | Some st ->
                if flow_stalled p then Retry.mark_stalled st ~now:!now else Retry.clear st;
                note st
              | None ->
                if flow_stalled p then begin
                  let st = Retry.fresh () in
                  Retry.mark_stalled st ~now:!now;
                  tb.timer.(p) <- Some st;
                  note st
                end
          done
      done;
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
      for a = 0 to !nactive - 1 do
        let lt = !active.(a) in
        if (not lt.resolved) && not lt.failed then
          for i = 0 to lt.slots - 1 do
            let p = lt.first + i in
            if tb.remaining.(p) > 0. then
              match tb.timer.(p) with
              | Some st when Retry.next_deadline rc st <= !now +. time_epsilon ->
                incr fired;
                if not (Retry.exhausted rc st) then begin
                  Retry.note_retry st ~now:!now;
                  incr retries_attempted;
                  Log.debug (fun m ->
                      m "t=%.3f task#%d retrying stalled fetch from server %d (%d/%d)" !now
                        lt.task.Task.id tb.source.(p) st.Retry.attempts rc.Retry.retries)
                end
                else begin
                  incr retries_exhausted;
                  let eligible =
                    let busy = ref [] in
                    for q = lt.first to lt.first + lt.slots - 1 do
                      busy := tb.source.(q) :: !busy
                    done;
                    spare_sources lt.task !busy
                  in
                  match alg.Algorithm.reselect with
                  | Some reselect when Array.length eligible >= 1 ->
                    let repl =
                      replace_slots reselect lt ~eligible ~slots:[ i ] ~suffix:" (retry)"
                    in
                    incr tasks_rehomed;
                    Log.debug (fun m ->
                        m "t=%.3f task#%d retry budget exhausted, re-homed onto server %d" !now
                          lt.task.Task.id repl.(0))
                  | _ ->
                    (* Nowhere to go: keep the stalled fetch (the
                       degradation may still expire in time) but
                       stop timing it. *)
                    Retry.give_up st
                end
              | _ -> ()
          done
      done;
      !fired
  in
  let moved_total = ref 0. in
  (* Transfer over [now, now+dt), minus any initial frozen span. *)
  let advance_volumes dt =
    let t_now = !now and frozen = !frozen_until in
    let dt =
      if frozen <= t_now then dt
      else begin
        let stop = t_now +. dt in
        let until = if frozen <= stop then frozen else stop in
        let left = dt -. (until -. t_now) in
        if 0. >= left then 0. else left
      end
    in
    if dt > 0. then begin
      let total = ref !moved_total in
      for a = !nactive - 1 downto 0 do
        let lt = !active.(a) in
        if not lt.resolved then
          for p = lt.first to lt.first + lt.slots - 1 do
            let r = tb.rate.(p) and m = tb.remaining.(p) in
            if r > 0. && m > 0. then begin
              let step = r *. dt in
              let moved = if m <= step then m else step in
              tb.remaining.(p) <- m -. moved;
              total := !total +. moved;
              let route = tb.route.(p) in
              for i = 0 to Array.length route - 1 do
                let e = route.(i) in
                entity_bits.(e) <- entity_bits.(e) +. moved
              done
            end
          done
      done;
      moved_total := !total
    end
  in
  let next_event_time () =
    let t_arr =
      if !next_pending < Array.length pending then pending.(!next_pending).Task.arrival
      else infinity
    in
    let t_fg =
      let a = Foreground.next_change fg and b = Fault.next_change fstate in
      if a <= b then a else b
    in
    let t_fg =
      match dstate with
      | None -> t_fg
      | Some d ->
        let b = Detector.next_change d in
        if t_fg <= b then t_fg else b
    in
    let t_fg = if t_fg <= !next_retry then t_fg else !next_retry in
    let t_now = !now and frozen = !frozen_until in
    let transfer_start = if t_now >= frozen then t_now else frozen in
    let t_dl = ref infinity and t_cmp = ref infinity in
    for a = !nactive - 1 downto 0 do
      let lt = !active.(a) in
      if not lt.resolved then begin
        if not lt.failed then begin
          let d = lt.task.Task.deadline in
          if not (!t_dl <= d) then t_dl := d
        end;
        for p = lt.first to lt.first + lt.slots - 1 do
          let r = tb.rate.(p) and m = tb.remaining.(p) in
          if r > 0. && m > 0. then begin
            let c = transfer_start +. (m /. r) in
            if not (!t_cmp <= c) then t_cmp := c
          end
        done
      end
    done;
    (* Every live flow has more than [volume_epsilon] left, so a
       completion time at or before [now] means [remaining /. rate] fell
       below the clock's resolution (a clock past ~1e7 s): step one ulp,
       so [advance_volumes] moves the residual instead of stalling. *)
    let t_cmp = if !t_cmp > t_now then !t_cmp else Float.succ t_now in
    let t_dl = !t_dl in
    let a = if t_arr <= t_fg then t_arr else t_fg and b = if t_dl <= t_cmp then t_dl else t_cmp in
    if a <= b then a else b
  in
  let stalls = ref 0 in
  let work_remains () =
    let rec live a = a < !nactive && ((not !active.(a).resolved) || live (a + 1)) in
    live 0 || !next_pending < Array.length pending
  in
  (* An arriving task's static slack: what its deadline leaves beyond
     moving its whole volume at its destination's link capacity. *)
  let static_slack i =
    let t = pending.(i) in
    let dest_cap =
      (Topology.entity topo (Topology.server_entity topo t.Task.destination)).Topology.capacity
    in
    t.Task.deadline -. t.Task.arrival -. (Task.total_volume t /. dest_cap)
  in
  replan ();
  update_retry_clocks ();
  while work_remains () do
    let t_next = next_event_time () in
    if not (Float.is_finite t_next) then
      failwith "Engine.run: no future event but tasks remain";
    let dt =
      let d = t_next -. !now in
      if 0. >= d then 0. else d
    in
    advance_volumes dt;
    if not (!now >= t_next) then now := t_next;
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
    let t_now = !now in
    (* Completions first: a flow finishing exactly at the deadline
       counts. Newest task first, as everywhere [active] is walked
       without a stated order. *)
    for a = !nactive - 1 downto 0 do
      let lt = !active.(a) in
      if not lt.resolved then begin
        (* A flow within [volume_epsilon] of done, or drained to exactly
           zero during [advance_volumes] but still holding a rate. *)
        let finished = ref true in
        for p = lt.first to lt.first + lt.slots - 1 do
          let m = tb.remaining.(p) in
          if m <= volume_epsilon && (m > 0. || tb.rate.(p) > 0.) then retire p;
          if not (tb.remaining.(p) <= 0.) then finished := false
        done;
        if !finished then begin
          (* A task that already failed keeps its failure outcome even
             if a deadline-blind heuristic finishes it later — and the
             volume it pulled past the deadline is pure waste. *)
          if not lt.failed then begin
            record_outcome lt ~completed:true;
            (* rescued: the watchdog swapped it at least once *)
            if lt.wd.Watchdog.swaps > 0 then incr tasks_rescued
          end
          else wasted := !wasted +. Task.total_volume lt.task;
          lt.resolved <- true;
          incr processed
        end
      end
    done;
    (* Deadline expiries: record the failure (and the remaining-volume
       metric) now; abandon the flows only if the algorithm has
       admission control, otherwise they keep occupying the network. *)
    for a = !nactive - 1 downto 0 do
      let lt = !active.(a) in
      if (not lt.resolved) && (not lt.failed) && lt.task.Task.deadline <= t_now +. time_epsilon
      then begin
        record_outcome lt ~completed:false;
        lt.failed <- true;
        (* everything an abandoned task pulled is waste *)
        if alg.Algorithm.abandon_expired then retire_task lt wasted;
        incr processed
      end
    done;
    (* Faults due now: normalize the whole batch, then kill / re-home /
       lose. With a detector the physical changes only move capacity
       multipliers (dirty-marking the entities); the control-plane
       reaction — kills, re-homes, losses — waits for the confirmation
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
       first (each spawn's view includes the earlier ones). Equal
       slacks keep the later arrival first. *)
    let first_due = !next_pending in
    while
      !next_pending < Array.length pending
      && pending.(!next_pending).Task.arrival <= !now +. time_epsilon
    do
      incr next_pending;
      incr processed
    done;
    let ndue = !next_pending - first_due in
    if ndue > 0 then begin
      let due = Array.init ndue (fun j -> !next_pending - 1 - j) in
      let slack = Array.map static_slack due in
      room := Array.fold_left (fun acc i -> acc + pending.(i).Task.k) tb.size due;
      let order = Array.init ndue Fun.id in
      Array.stable_sort (fun i j -> Float.compare slack.(i) slack.(j)) order;
      Array.iter (fun j -> spawn due.(j)) order
    end;
    drop_resolved ();
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
  let horizon =
    let t_now = !now in
    if t_now >= 1e-9 then t_now else 1e-9
  in
  let util_sum = ref 0. in
  for e = 0 to nent - 1 do
    let raw = (Topology.entity topo e).Topology.capacity in
    util_sum := !util_sum +. (entity_bits.(e) /. (raw *. horizon))
  done;
  { Metrics.algorithm = alg.Algorithm.name;
    outcomes = Array.to_list (Array.map (fun i -> outcomes.(i)) by_id);
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
