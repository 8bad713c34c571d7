module Task = S3_workload.Task

type admission =
  | Rtf_order
  | Arrival_order

type bandwidth =
  | Lp_max
  | Lrb_only

(* Phase II scratch, kept per instance and grown on demand. Run [r] of
   the view's flow list starts at cell [first.(r)] and holds [len.(r)]
   flows of task [task.(r)], whose id is [id.(r)]; [held.(r)] says the
   sticky table holds that task, and [key.(r)] is its admission key.
   [order] holds the runs in admission order, sorted through [tmp].
   Per entity: [avail] starts each call as the view's available
   capacity and loses each admitted task's demand; [demand] is the
   current task's summed LRB, over the stack [touched] of the entities
   it crosses, which [seen] marks. *)
type scratch = {
  mutable first : Problem.flow list array;
  mutable len : int array;
  mutable task : Task.t array;
  mutable id : int array;
  mutable held : bool array;
  mutable key : float array;
  mutable order : int array;
  mutable tmp : int array;
  mutable avail : float array;
  mutable demand : float array;
  mutable seen : bool array;
  mutable touched : int array;
}

let scratch () =
  { first = [||];
    len = [||];
    task = [||];
    id = [||];
    held = [||];
    key = [||];
    order = [||];
    tmp = [||];
    avail = [||];
    demand = [||];
    seen = [||];
    touched = [||]
  }

(* [a] if it has room for [need] entries, else a copy of it at least
   twice as long, filled out with [fill]. *)
let grow a need fill =
  let n = Array.length a in
  if n >= need then a
  else begin
    let b = Array.make (max need (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

(* One pass over the flow list: each run's first cell, length, task
   and task id. Returns the number of runs. *)
let rec record s r = function
  | [] -> r
  | (f :: _) as cells ->
    let t = f.Problem.task in
    if r = Array.length s.task then begin
      s.first <- grow s.first (r + 1) [];
      s.len <- grow s.len (r + 1) 0;
      s.task <- grow s.task (r + 1) t;
      s.id <- grow s.id (r + 1) 0
    end;
    s.first.(r) <- cells;
    s.task.(r) <- t;
    s.id.(r) <- t.Task.id;
    extend s r t.Task.id 0 cells

and extend s r id n = function
  | f :: rest when f.Problem.task.Task.id = id -> extend s r id (n + 1) rest
  | rest ->
    s.len.(r) <- n;
    record s (r + 1) rest

(* Eq. (13) for run [r] into [s.key.(r)], each route's bottleneck read
   from [s.avail]: the operations and order of [Rtf.task_rtf]. *)
let rank_rtf s (v : Problem.view) r =
  let now = v.Problem.now in
  let key = ref infinity and cells = ref s.first.(r) in
  for _ = 1 to s.len.(r) do
    match !cells with
    | [] -> ()
    | f :: rest ->
      cells := rest;
      let route = Problem.route_arr v f in
      let cap = ref infinity in
      for i = 0 to Array.length route - 1 do
        let a = s.avail.(route.(i)) in
        if not (!cap <= a) then cap := a
      done;
      let arrival = f.Problem.task.Task.arrival in
      let start = if now >= arrival then now else arrival in
      let rtf =
        if !cap <= 0. then neg_infinity
        else f.Problem.task.Task.deadline -. start -. (f.Problem.remaining /. !cap)
      in
      if not (!key <= rtf) then key := rtf
  done;
  s.key.(r) <- !key

(* Admit run [r] if each of its flows has a finite LRB and their LRBs,
   summed per entity in flow order and then route order, fit [s.avail]
   (1e-9 tolerance) on every entity they cross; an admitted run's
   demand leaves [s.avail]. *)
let admit_run s (v : Problem.view) r =
  let now = v.Problem.now in
  let ntouched = ref 0 and finite = ref true in
  let cells = ref s.first.(r) and left = ref s.len.(r) in
  while !finite && !left > 0 do
    match !cells with
    | [] -> left := 0
    | f :: rest ->
      cells := rest;
      decr left;
      (* [Rtf.lrb]'s operations, its check included. *)
      let remaining = f.Problem.remaining and deadline = f.Problem.task.Task.deadline in
      if remaining < 0. then invalid_arg "Rtf.lrb: negative remaining volume";
      let l = if deadline <= now then infinity else remaining /. (deadline -. now) in
      if Float.is_finite l then begin
        let route = Problem.route_arr v f in
        for i = 0 to Array.length route - 1 do
          let e = route.(i) in
          if not s.seen.(e) then begin
            s.seen.(e) <- true;
            s.touched.(!ntouched) <- e;
            incr ntouched
          end;
          s.demand.(e) <- s.demand.(e) +. l
        done
      end
      else finite := false
  done;
  let fits = ref !finite and i = ref 0 in
  while !fits && !i < !ntouched do
    let e = s.touched.(!i) in
    fits := s.demand.(e) <= s.avail.(e) +. 1e-9;
    incr i
  done;
  for i = 0 to !ntouched - 1 do
    let e = s.touched.(i) in
    if !fits then s.avail.(e) <- s.avail.(e) -. s.demand.(e);
    s.demand.(e) <- 0.;
    s.seen.(e) <- false
  done;
  !fits

(* Admission order between runs [r] and [q]: held first, then
   ascending key by [Float.compare] (NaN first, [-0.] equal to [0.]),
   then ascending task id. *)
let[@inline] compare_runs s r q =
  let hr = s.held.(r) and hq = s.held.(q) in
  if hr <> hq then if hr then -1 else 1
  else
    match Float.compare s.key.(r) s.key.(q) with
    | 0 -> Int.compare s.id.(r) s.id.(q)
    | c -> c

(* Sort [s.order.(lo) .. s.order.(hi - 1)] by [compare_runs], stably,
   through [s.tmp]: a merge sort with insertion sort on short runs. *)
let rec sort_runs s lo hi =
  let a = s.order in
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && compare_runs s a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_runs s lo mid;
    sort_runs s mid hi;
    if compare_runs s a.(mid - 1) a.(mid) > 0 then begin
      (* Merge the left half, moved to [tmp], with the right half in
         place, the left one first on ties. *)
      let tmp = s.tmp in
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid && !j < hi do
        if compare_runs s tmp.(!i) a.(!j) <= 0 then begin
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

(* The first [n] flows of [cells], in front of [tail]. *)
let rec prefix cells n tail =
  match cells with
  | f :: rest when n > 0 -> f :: prefix rest (n - 1) tail
  | _ -> tail

(* Phase II over the view's task runs: rank them, held runs first and
   then by ascending (key, task id), and admit each in that order
   while its LRBs fit what the runs before it left. [add] folds each
   admitted run's task, first cell and length into [init], from the
   last admitted run to the first. The scratch lets go of the view's
   cells before returning. *)
let phase2 s ~admission ~held (v : Problem.view) ~add init =
  let nruns = record s 0 (Lazy.force v.Problem.flows) in
  let nent = Array.length (S3_net.Topology.entities v.Problem.topo) in
  s.avail <- grow s.avail nent 0.;
  s.demand <- grow s.demand nent 0.;
  s.seen <- grow s.seen nent false;
  s.touched <- grow s.touched nent 0;
  for e = 0 to nent - 1 do
    s.avail.(e) <- v.Problem.available e
  done;
  s.held <- grow s.held nruns false;
  s.key <- grow s.key nruns 0.;
  for r = 0 to nruns - 1 do
    s.held.(r) <- held s.id.(r);
    match admission with
    | Rtf_order -> rank_rtf s v r
    | Arrival_order -> s.key.(r) <- s.task.(r).Task.arrival
  done;
  s.order <- grow s.order nruns 0;
  s.tmp <- grow s.tmp nruns 0;
  let order = s.order in
  for r = 0 to nruns - 1 do
    order.(r) <- r
  done;
  sort_runs s 0 nruns;
  let nadmitted = ref 0 in
  for q = 0 to nruns - 1 do
    let r = order.(q) in
    if admit_run s v r then begin
      order.(!nadmitted) <- r;
      incr nadmitted
    end
  done;
  let acc = ref init in
  for q = !nadmitted - 1 downto 0 do
    let r = order.(q) in
    acc := add s.task.(r) s.first.(r) s.len.(r) !acc
  done;
  Array.fill s.first 0 nruns [];
  !acc

let admit v =
  phase2 (scratch ()) ~admission:Rtf_order ~held:(fun _ -> false) v
    ~add:(fun t cells n acc -> (t, prefix cells n []) :: acc)
    []

let lpst ?(sources = Algorithm.Least_congested) ?(admission = Rtf_order)
    ?(bandwidth = Lp_max) ?(sticky = true) ?name () =
  let name = Option.value ~default:"LPST" name in
  (* Sticky admission state: once a task is admitted it keeps its
     reservation until it completes, expires, or foreground traffic
     forces an eviction — this is what makes "admitted tasks are
     guaranteed to meet their deadlines" (4, Phase III) true, and it
     prevents the thrashing where a half-finished task loses its slot
     to a waiting one and both miss. Held tasks are re-triaged ahead
     of the rest: with static capacity every one still fits
     (allocations never fell below LRB), so they are evicted only
     when foreground traffic stole bandwidth. *)
  let admitted = Hashtbl.create 256 in
  (* [admitted] maps a task id to the call that last admitted or kept
     it; entries not stamped by the current call are dropped at its
     end, so a task missing from a view (completed, expired) loses its
     reservation. *)
  let generation = ref 0 in
  let scratch = scratch () in
  (* Per-instance solver state: the Phase III LPs of consecutive events
     share structure, so the workspace (and, when the flow set is
     unchanged, the previous basis or solution) carries over. *)
  let lp_state = S3_lp.Lp.create_state () in
  let allocate (v : Problem.view) =
    if not sticky then Hashtbl.reset admitted;
    incr generation;
    let gen = !generation in
    let flows =
      phase2 scratch ~admission ~held:(Hashtbl.mem admitted) v
        ~add:(fun (t : Task.t) cells n acc ->
          Hashtbl.replace admitted t.Task.id gen;
          prefix cells n acc)
        []
    in
    Hashtbl.filter_map_inplace (fun _ g -> if g = gen then Some g else None) admitted;
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
