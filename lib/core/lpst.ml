module Task = S3_workload.Task

type admission =
  | Rtf_order
  | Arrival_order

type bandwidth =
  | Lp_max
  | Lrb_only

let admission_key admission =
  match admission with
  | Rtf_order -> fun v (_, flows) -> Rtf.task_rtf v flows
  | Arrival_order -> fun _ ((t : Task.t), _) -> t.Task.arrival

(* Residual capacity indexed by entity id, seeded from the view. *)
let make_residual (v : Problem.view) =
  let nent = Array.length (S3_net.Topology.entities v.Problem.topo) in
  Array.init nent (fun e -> v.Problem.available e)

(* Greedy Phase II over a candidate list, consuming [residual]
   capacity in place. Returns the tasks that fit. *)
let admit_into (v : Problem.view) residual candidates =
  let nent = Array.length residual in
  (* Per-task scratch, reset after each candidate: demand per entity,
     and a stack of the entities this task touches. *)
  let demand = Array.make nent 0. in
  let seen = Array.make nent false in
  let touched = Array.make nent 0 and ntouched = ref 0 in
  (* Aggregate the task's demand per entity, flow by flow along each
     route; false at the first flow whose LRB is not finite. *)
  let rec aggregate = function
    | [] -> true
    | f :: rest ->
      let l = Rtf.flow_lrb v f in
      Float.is_finite l
      && begin
        Array.iter
          (fun e ->
            if not seen.(e) then begin
              seen.(e) <- true;
              touched.(!ntouched) <- e;
              incr ntouched
            end;
            demand.(e) <- demand.(e) +. l)
          (Problem.route_arr v f);
        aggregate rest
      end
  in
  let rec fits i =
    i >= !ntouched
    ||
    let e = touched.(i) in
    demand.(e) <= residual.(e) +. 1e-9 && fits (i + 1)
  in
  List.filter
    (fun (_, flows) ->
      let ok = aggregate flows && fits 0 in
      for i = 0 to !ntouched - 1 do
        let e = touched.(i) in
        if ok then residual.(e) <- residual.(e) -. demand.(e);
        demand.(e) <- 0.;
        seen.(e) <- false
      done;
      ntouched := 0;
      ok)
    candidates

let admit (v : Problem.view) =
  let ordered = Sequencing.ordered_tasks v ~key:(admission_key Rtf_order) in
  admit_into v (make_residual v) ordered

(* Re-triage a previously admitted set against (possibly reduced)
   capacity: keep tasks in urgency order while they fit. With static
   capacity every survivor fits (allocations never fell below LRB), so
   this only evicts when foreground traffic stole bandwidth. *)
let retriage ~admission (v : Problem.view) residual admitted_tasks =
  admit_into v residual
    (Sequencing.sort_pairs v ~key:(admission_key admission) admitted_tasks)

let lpst ?(sources = Algorithm.Least_congested) ?(admission = Rtf_order)
    ?(bandwidth = Lp_max) ?(sticky = true) ?name () =
  let name = Option.value ~default:"LPST" name in
  (* Sticky admission state: once a task is admitted it keeps its
     reservation until it completes, expires, or foreground traffic
     forces an eviction — this is what makes "admitted tasks are
     guaranteed to meet their deadlines" (4, Phase III) true, and it
     prevents the thrashing where a half-finished task loses its slot
     to a waiting one and both miss. *)
  let admitted = Hashtbl.create 256 in
  (* [admitted] maps a task id to the call that last admitted or kept
     it; entries not stamped by the current call are dropped at its
     end, so a task missing from a view (completed, expired) loses its
     reservation. *)
  let generation = ref 0 in
  (* Per-instance solver state: the Phase III LPs of consecutive events
     share structure, so the workspace (and, when the flow set is
     unchanged, the previous basis or solution) carries over. *)
  let lp_state = S3_lp.Lp.create_state () in
  let allocate (v : Problem.view) =
    if not sticky then Hashtbl.reset admitted;
    incr generation;
    let gen = !generation in
    let stamp ((t : Task.t), _) = Hashtbl.replace admitted t.Task.id gen in
    let held, candidates =
      List.partition (fun ((t : Task.t), _) -> Hashtbl.mem admitted t.Task.id) (Problem.by_task v)
    in
    let residual = make_residual v in
    let kept = retriage ~admission v residual held in
    List.iter stamp kept;
    let fresh =
      admit_into v residual
        (Sequencing.sort_pairs v ~key:(admission_key admission) candidates)
    in
    List.iter stamp fresh;
    Hashtbl.filter_map_inplace (fun _ g -> if g = gen then Some g else None) admitted;
    let flows = List.concat_map snd (kept @ fresh) in
    match flows with
    | [] -> []
    | _ -> (
      let lrb f = Rtf.flow_lrb v f in
      match bandwidth with
      | Lrb_only -> List.map (fun f -> (f.Problem.flow_id, lrb f)) flows
      | Lp_max -> (
        match Allocation.lp_allocate ~state:lp_state ~lower:lrb v flows with
        | Some rates -> rates
        | None ->
          (* Admission guaranteed LRB fits; reach here only on solver
             numerics. LRB rates are feasible by construction. *)
          List.map (fun f -> (f.Problem.flow_id, lrb f)) flows))
  in
  { Algorithm.name;
    select_sources = Algorithm.source_selector sources;
    allocate;
    abandon_expired = true;
    reselect = Some (Algorithm.reselect_of_policy sources)
  }
