(* Phase II and task ordering against the code they replaced.

   [Oracle] holds the grouping, ordering and admission functions as they
   were before they became single passes (per-flow hashing, boxed-key
   sorts, per-task lists), copied verbatim apart from module paths, and
   LPST's [allocate] as it was before Phase II ran over the view's task
   runs on arrays: [Problem.by_task], the partition on the sticky
   table, the re-triage of the held tasks, the sort of the rest,
   greedy admission, the generation stamps and [lp_allocate], with a
   tally of the cases each call met. Two properties compare the
   current functions with them bit for bit.

   - On single random views: each task's flows one run, as the view
     contract requires, with the runs in generated or shuffled order;
     equal, infinite and NaN keys; and zero or degraded availability (a
     zero-capacity path gives a [neg_infinity] RTF).
   - On streams of views through one LPST instance, for every LPST
     variant of the registry and for [~sticky:false]: tasks join and
     leave, flows progress, availability falls and rises, and deadlines
     pass. Times, volumes and capacities lie on decimal grids, so keys
     tie exactly and nearly, and task ids disagree with arrival
     order. *)

module Problem = S3_core.Problem
module Rtf = S3_core.Rtf
module Lpst = S3_core.Lpst
module Sequencing = S3_core.Sequencing
module Allocation = S3_core.Allocation
module Registry = S3_core.Registry
module Algorithm = S3_core.Algorithm
module Task = S3_workload.Task
module T = S3_net.Topology
module Prng = S3_util.Prng

module Oracle = struct
  let by_task (v : Problem.view) =
    let order = ref [] in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (f : Problem.flow) ->
        let id = f.Problem.task.Task.id in
        match Hashtbl.find_opt tbl id with
        | None ->
          let cell = ref [ f ] in
          order := (f.Problem.task, cell) :: !order;
          Hashtbl.replace tbl id cell
        | Some cell -> cell := f :: !cell)
      (Lazy.force v.Problem.flows);
    List.rev_map (fun (t, cell) -> (t, List.rev !cell)) !order

  let sort_pairs v ~key pairs =
    let scored = List.map (fun tf -> (key v tf, tf)) pairs in
    List.sort
      (fun (ka, (ta, _)) (kb, (tb, _)) ->
        match compare ka kb with
        | 0 -> compare ta.Task.id tb.Task.id
        | c -> c)
      scored
    |> List.map snd

  let ordered_tasks v ~key = sort_pairs v ~key (by_task v)

  let head_only v ~key =
    match ordered_tasks v ~key with
    | [] -> []
    | (_, flows) :: _ -> [ flows ]

  let disjoint_groups v ~key =
    let used = Hashtbl.create 64 in
    let server_only e =
      match (T.entity v.Problem.topo e).T.kind with
      | T.Server_nic -> true
      | T.Tor_uplink | T.Edge_switch | T.Agg_switch | T.Core_switch | T.Bcube_switch
      | T.Leaf_switch | T.Spine_switch -> false
    in
    let entities flows =
      List.concat_map (fun f -> Array.to_list (Problem.route_arr v f)) flows
      |> List.filter server_only |> List.sort_uniq compare
    in
    List.filter_map
      (fun (_, flows) ->
        let es = entities flows in
        if List.exists (Hashtbl.mem used) es then None
        else begin
          List.iter (fun e -> Hashtbl.replace used e ()) es;
          Some flows
        end)
      (ordered_tasks v ~key)

  let admit_into (v : Problem.view) residual candidates =
    let nent = Array.length residual in
    let demand = Array.make nent 0. in
    let seen = Array.make nent false in
    List.filter
      (fun (_, flows) ->
        let lrbs = List.map (fun f -> (f, Rtf.flow_lrb v f)) flows in
        if List.exists (fun (_, l) -> not (Float.is_finite l)) lrbs then false
        else begin
          let touched = ref [] in
          List.iter
            (fun (f, l) ->
              Array.iter
                (fun e ->
                  if not seen.(e) then begin
                    seen.(e) <- true;
                    touched := e :: !touched
                  end;
                  demand.(e) <- demand.(e) +. l)
                (Problem.route_arr v f))
            lrbs;
          let fits = List.for_all (fun e -> demand.(e) <= residual.(e) +. 1e-9) !touched in
          if fits then List.iter (fun e -> residual.(e) <- residual.(e) -. demand.(e)) !touched;
          List.iter
            (fun e ->
              demand.(e) <- 0.;
              seen.(e) <- false)
            !touched;
          fits
        end)
      candidates

  let admission_key admission =
    match admission with
    | Lpst.Rtf_order -> fun v (_, flows) -> Rtf.task_rtf v flows
    | Lpst.Arrival_order -> fun _ ((t : Task.t), _) -> t.Task.arrival

  (* What the calls of a stream met: held tasks evicted by re-triage;
     a held task kept although a refused candidate had a smaller key,
     so that ranking held tasks first decided the outcome; and two
     tasks of one call with equal keys, ordered by id. *)
  type tally = {
    mutable evicted : int;
    mutable held_first : int;
    mutable tied : int;
  }

  let count tally ~admission v held kept candidates fresh =
    let key = admission_key admission v in
    let ids = List.map (fun ((t : Task.t), _) -> t.Task.id) in
    let kept_ids = ids kept and fresh_ids = ids fresh in
    if List.length kept < List.length held then tally.evicted <- tally.evicted + 1;
    let refused =
      List.filter (fun ((t : Task.t), _) -> not (List.mem t.Task.id fresh_ids)) candidates
    in
    let kept_pairs = List.filter (fun ((t : Task.t), _) -> List.mem t.Task.id kept_ids) held in
    if
      List.exists
        (fun c -> List.exists (fun h -> Float.compare (key c) (key h) < 0) kept_pairs)
        refused
    then tally.held_first <- tally.held_first + 1;
    let keys = List.map key (held @ candidates) in
    if List.length (List.sort_uniq Float.compare keys) < List.length keys then
      tally.tied <- tally.tied + 1

  let make_residual (v : Problem.view) =
    let nent = Array.length (T.entities v.Problem.topo) in
    Array.init nent (fun e -> v.Problem.available e)

  let retriage ~admission (v : Problem.view) residual admitted_tasks =
    admit_into v residual (sort_pairs v ~key:(admission_key admission) admitted_tasks)

  let lpst ?tally ~admission ~bandwidth ~sticky () =
    let admitted = Hashtbl.create 256 in
    let generation = ref 0 in
    let lp_state = S3_lp.Lp.create_state () in
    fun (v : Problem.view) ->
      if not sticky then Hashtbl.reset admitted;
      incr generation;
      let gen = !generation in
      let stamp ((t : Task.t), _) = Hashtbl.replace admitted t.Task.id gen in
      let held, candidates =
        List.partition
          (fun ((t : Task.t), _) -> Hashtbl.mem admitted t.Task.id)
          (Problem.by_task v)
      in
      let residual = make_residual v in
      let kept = retriage ~admission v residual held in
      List.iter stamp kept;
      let fresh =
        admit_into v residual (sort_pairs v ~key:(admission_key admission) candidates)
      in
      List.iter stamp fresh;
      Option.iter (fun t -> count t ~admission v held kept candidates fresh) tally;
      Hashtbl.filter_map_inplace (fun _ g -> if g = gen then Some g else None) admitted;
      let flows = List.concat_map snd (kept @ fresh) in
      match flows with
      | [] -> []
      | _ -> (
        let lrb f = Rtf.flow_lrb v f in
        match bandwidth with
        | Lpst.Lrb_only -> List.map (fun f -> (f.Problem.flow_id, lrb f)) flows
        | Lpst.Lp_max -> (
          match Allocation.lp_allocate ~state:lp_state ~lower:lrb v flows with
          | Some rates -> rates
          | None -> List.map (fun f -> (f.Problem.flow_id, lrb f)) flows))
end

(* ---- random views ---- *)

type scene = {
  view : Problem.view;
  keys : (int, float) Hashtbl.t;  (* task id -> sort key *)
}

(* Keys drawn from a small pool, so ties are common, with both
   infinities and NaN in it. *)
let key_pool = [| 0.; 1.; 1.; -2.5; 3.25; infinity; neg_infinity; Float.nan; 1e-300; -0. |]

let scene seed =
  let g = Prng.create seed in
  let topo =
    T.two_tier ~racks:(1 + Prng.int g 3) ~servers_per_rack:(2 + Prng.int g 3) ~cst:1000.
      ~cta:2500.
  in
  let nservers = T.servers topo and nent = Array.length (T.entities topo) in
  let now = 1. +. Prng.float g 4. in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Prng.int g (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
  in
  (* Task ids are a random injection into [0, 4n), so list order and id
     order disagree and ties on the key fall to the id. *)
  let ntasks = Prng.int g 9 in
  let ids = Array.init (4 * max 1 ntasks) Fun.id in
  shuffle ids;
  let keys = Hashtbl.create 16 in
  let next_flow = ref 0 in
  let runs =
    List.init ntasks (fun i ->
        let id = ids.(i) in
        Hashtbl.replace keys id
          (if Prng.int g 4 = 0 then Prng.float g 10. -. 5.
           else key_pool.(Prng.int g (Array.length key_pool)));
        let destination = Prng.int g nservers in
        let others = Array.init (nservers - 1) (fun s -> if s < destination then s else s + 1) in
        shuffle others;
        let k = 1 + Prng.int g (min 3 (nservers - 1)) in
        let sources = Array.sub others 0 k in
        (* Deadlines at, before and after [now]: the first two give an
           infinite LRB, which admission refuses. Arrivals before [now]
           and, with a later deadline, at or after it. *)
        let deadline =
          match Prng.int g 6 with
          | 0 -> now
          | 1 -> now -. 0.5
          | _ -> now +. 0.5 +. Prng.float g 20.
        in
        let arrival =
          match Prng.int g 3 with
          | 0 when deadline > now -> now
          | 1 when deadline > now -> now +. (0.5 *. Prng.float g (deadline -. now))
          | _ -> Prng.float g deadline
        in
        let volume = 100. +. Prng.float g 4000. in
        let t = Task.v ~id ~arrival ~deadline ~volume ~k ~sources ~destination () in
        List.init k (fun j ->
            let flow_id = !next_flow in
            incr next_flow;
            { Problem.flow_id;
              task = t;
              source = sources.(j);
              remaining = (if Prng.int g 8 = 0 then 0. else Prng.float g volume)
            }))
  in
  (* One run per task, as a view must list them; the runs in generated
     or shuffled order. [Problem.by_task] does not re-join a task whose
     flows come back after another task's, so a list that splits a run
     is outside the contract and not generated. *)
  let flows =
    match Prng.int g 2 with
    | 0 -> List.concat runs
    | _ ->
      let a = Array.of_list runs in
      shuffle a;
      List.concat (Array.to_list a)
  in
  (* Each entity keeps its capacity, loses a random share of it, or
     has none left. *)
  let avail =
    Array.init nent (fun e ->
        let c = (T.entity topo e).T.capacity in
        match Prng.int g 5 with
        | 0 -> 0.
        | 1 -> c *. Prng.float g 1.
        | _ -> c)
  in
  { view = { Problem.now; topo; flows = lazy flows; available = (fun e -> avail.(e)); load = None };
    keys
  }

(* ---- comparisons ---- *)

let ids_of pairs = List.map (fun ((t : Task.t), _) -> t.Task.id) pairs
let flow_ids fs = List.map (fun (f : Problem.flow) -> f.Problem.flow_id) fs
let pair_ids pairs = List.map (fun (t, fs) -> (t.Task.id, flow_ids fs)) pairs

let show_ids l = String.concat "," (List.map string_of_int l)

let show_groups gs = String.concat " | " (List.map (fun g -> show_ids (flow_ids g)) gs)

(* The first disagreement between the current functions and [Oracle]
   on one scene: the two ordering disciplines under the table key, the
   RTF key and arrival order, then Phase II in RTF order. *)
let mismatch seed =
  let { view = v; keys } = scene seed in
  let table_key _ ((t : Task.t), _) = Hashtbl.find keys t.Task.id in
  let rtf_key v (_, flows) = Rtf.task_rtf v flows in
  let arrival_key _ ((t : Task.t), _) = t.Task.arrival in
  let fail what a b = Some (Printf.sprintf "%s: got %s, oracle %s" what a b) in
  let groups = Problem.by_task v and groups' = Oracle.by_task v in
  if pair_ids groups <> pair_ids groups' then
    fail "by_task" (show_ids (ids_of groups)) (show_ids (ids_of groups'))
  else
    let per_key (name, key) =
      let head = Sequencing.head_only v ~key and head' = Oracle.head_only v ~key in
      if List.map flow_ids head <> List.map flow_ids head' then
        fail (name ^ " head_only") (show_groups head) (show_groups head')
      else
        let dis = Sequencing.disjoint_groups v ~key
        and dis' = Oracle.disjoint_groups v ~key in
        if List.map flow_ids dis <> List.map flow_ids dis' then
          fail (name ^ " disjoint_groups") (show_groups dis) (show_groups dis')
        else None
    in
    match
      List.find_map per_key [ ("table", table_key); ("rtf", rtf_key); ("arrival", arrival_key) ]
    with
    | Some _ as m -> m
    | None ->
      let admitted = Lpst.admit v
      and admitted' =
        Oracle.admit_into v (Oracle.make_residual v) (Oracle.ordered_tasks v ~key:rtf_key)
      in
      if pair_ids admitted <> pair_ids admitted' then
        fail "admit" (show_ids (ids_of admitted)) (show_ids (ids_of admitted'))
      else None

let qcheck =
  let open QCheck in
  Test.make ~name:"grouping, ordering and admission == the replaced code, bit for bit"
    ~count:2000 (int_range 0 1_000_000)
    (fun seed ->
      match mismatch seed with
      | None -> true
      | Some m -> Test.fail_reportf "seed %d: %s" seed m)

(* ---- streams of views through one instance ---- *)

(* A live task of a stream, with each slot's flow id, source and
   remaining volume; a slot whose volume reached 0 has completed. *)
type live = {
  task : Task.t;
  flow_ids : int array;
  srcs : int array;
  rem : float array;
}

(* The views an engine could present to one LPST instance, event after
   event: tasks arrive (some already past their arrival time), flows
   progress and complete, tasks leave, time moves on (sometimes not at
   all, sometimes past deadlines) and every entity's availability is
   drawn again from a few shares of its capacity, so it falls and
   rises. Tasks take their ids from a shuffled pool. *)
let stream seed =
  let g = Prng.create seed in
  let topo =
    T.two_tier ~racks:(1 + Prng.int g 3) ~servers_per_rack:(2 + Prng.int g 3) ~cst:1000.
      ~cta:2500.
  in
  let nservers = T.servers topo in
  let steps = 2 + Prng.int g 7 in
  let ids = Array.init (5 * steps) Fun.id in
  Prng.shuffle g ids;
  let next_task = ref 0 and next_flow = ref 0 in
  let grid step n = step *. float_of_int (Prng.int g n) in
  let shares = [| 1.; 1.; 1.; 0.9; 0.7; 0.5; 0.3; 0. |] in
  let arrive now =
    let id = ids.(!next_task) in
    incr next_task;
    let destination = Prng.int g nservers in
    let others = Array.init (nservers - 1) (fun s -> if s < destination then s else s + 1) in
    Prng.shuffle g others;
    let k = 1 + Prng.int g (min 3 (nservers - 1)) in
    let sources = Array.sub others 0 k in
    let arrival = Float.max 0. (now -. grid 0.1 3) in
    let deadline = arrival +. 0.1 +. grid 0.1 60 in
    let volume = 100. +. grid 100. 40 in
    let task = Task.v ~id ~arrival ~deadline ~volume ~k ~sources ~destination () in
    let flow_ids = Array.init k (fun j -> !next_flow + j) in
    next_flow := !next_flow + k;
    { task; flow_ids; srcs = sources; rem = Array.make k volume }
  in
  let rec go step now tasks =
    if step = steps then []
    else
      let stayed =
        List.filter_map
          (fun l ->
            Array.iteri (fun j r -> l.rem.(j) <- Float.max 0. (r -. grid 50. 8)) l.rem;
            if Prng.int g 6 = 0 || Array.for_all (fun r -> r <= 0.) l.rem then None else Some l)
          tasks
      in
      let tasks = stayed @ List.init (Prng.int g 5) (fun _ -> arrive now) in
      let avail =
        Array.map
          (fun (e : T.entity) -> e.T.capacity *. shares.(Prng.int g (Array.length shares)))
          (T.entities topo)
      in
      let flows =
        List.concat_map
          (fun l ->
            List.filter_map Fun.id
              (List.init (Array.length l.rem) (fun j ->
                   if l.rem.(j) > 0. then
                     Some
                       { Problem.flow_id = l.flow_ids.(j);
                         task = l.task;
                         source = l.srcs.(j);
                         remaining = l.rem.(j)
                       }
                   else None)))
          tasks
      in
      let view =
        { Problem.now;
          topo;
          flows = Lazy.from_val flows;
          available = (fun e -> avail.(e));
          load = None
        }
      in
      view :: go (step + 1) (now +. grid 0.1 6) tasks
  in
  go 0 (grid 0.1 30) []

(* Every LPST variant of the registry with its Phase II and Phase III
   settings (the source policy never reaches [allocate]), and LPST
   without sticky admission. *)
let variants =
  List.map
    (fun (name, admission, bandwidth) ->
      (name, (fun () -> Registry.make name), admission, bandwidth, true))
    [ ("lpst", Lpst.Rtf_order, Lpst.Lp_max);
      ("lpst-p1", Lpst.Arrival_order, Lpst.Lrb_only);
      ("lpst-p2", Lpst.Rtf_order, Lpst.Lrb_only);
      ("lpst-p3", Lpst.Arrival_order, Lpst.Lp_max);
      ("sp-ff", Lpst.Arrival_order, Lpst.Lrb_only)
    ]
  @ [ ( "lpst ~sticky:false",
        (fun () -> Lpst.lpst ~sticky:false ()),
        Lpst.Rtf_order,
        Lpst.Lp_max,
        false )
    ]

let same_rates a b =
  List.equal
    (fun (i, x) (j, y) -> i = j && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let show_rates rates = String.concat ";" (List.map (fun (i, r) -> Printf.sprintf "%d:%h" i r) rates)

(* The first call of one stream, under any variant, whose rates differ
   from the oracle's. *)
let stream_mismatch ?tally seed =
  let views = stream seed in
  List.find_map
    (fun (name, make, admission, bandwidth, sticky) ->
      let alg = make () and oracle = Oracle.lpst ?tally ~admission ~bandwidth ~sticky () in
      List.find_map
        (fun (call, v) ->
          let got = alg.Algorithm.allocate v and want = oracle v in
          if same_rates got want then None
          else
            Some
              (Printf.sprintf "seed %d, %s, call %d: got %s, oracle %s" seed name call
                 (show_rates got) (show_rates want)))
        (List.mapi (fun call v -> (call, v)) views))
    variants

let stream_qcheck =
  let open QCheck in
  Test.make ~name:"sticky admission streams == the replaced allocate, bit for bit" ~count:1000
    (int_range 0 1_000_000)
    (fun seed ->
      match stream_mismatch seed with
      | None -> true
      | Some m -> Test.fail_report m)

(* A fixed batch of streams first, so that coverage never depends on
   the QCheck seed: some call must have evicted a held task, kept a
   held task that a refused candidate outranked by key, and met two
   tasks with equal keys. *)
let coverage_seeds = 200

let stream_test =
  let name, speed, run = QCheck_alcotest.to_alcotest stream_qcheck in
  ( name,
    speed,
    fun () ->
      let t = { Oracle.evicted = 0; held_first = 0; tied = 0 } in
      for seed = 0 to coverage_seeds - 1 do
        Option.iter Alcotest.fail (stream_mismatch ~tally:t seed)
      done;
      List.iter
        (fun (what, n) -> if n = 0 then Alcotest.failf "no call in the fixed batch %s" what)
        [ ("evicted a held task", t.Oracle.evicted);
          ("kept a held task over a smaller key", t.Oracle.held_first);
          ("met tied keys", t.Oracle.tied)
        ];
      run () )

let tests = ("phase2", [ QCheck_alcotest.to_alcotest qcheck; stream_test ])
