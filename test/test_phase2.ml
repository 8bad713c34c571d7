(* Phase II and task ordering against the code they replaced.

   [Oracle] holds the grouping, ordering and admission functions as they
   were before they became single passes (per-flow hashing, boxed-key
   sorts, per-task lists), copied verbatim apart from module paths.
   The property compares the current functions with them on random
   views, bit for bit: each task's flows one run, as the view contract
   requires, with the runs in generated or shuffled order; equal,
   infinite and NaN keys; and zero or degraded availability (a
   zero-capacity path gives a [neg_infinity] RTF). *)

module Problem = S3_core.Problem
module Rtf = S3_core.Rtf
module Lpst = S3_core.Lpst
module Sequencing = S3_core.Sequencing
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

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let show_ids l = String.concat "," (List.map string_of_int l)

let show_groups gs = String.concat " | " (List.map (fun g -> show_ids (flow_ids g)) gs)

(* The first disagreement between the current functions and [Oracle]
   on one scene, under the table key, the RTF key and arrival order. *)
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
      let sorted = Sequencing.sort_pairs v ~key groups'
      and sorted' = Oracle.sort_pairs v ~key groups' in
      if pair_ids sorted <> pair_ids sorted' then
        fail (name ^ " sort_pairs") (show_ids (ids_of sorted)) (show_ids (ids_of sorted'))
      else
        let head = Sequencing.head_only v ~key and head' = Oracle.head_only v ~key in
        if List.map flow_ids head <> List.map flow_ids head' then
          fail (name ^ " head_only") (show_groups head) (show_groups head')
        else
          let dis = Sequencing.disjoint_groups v ~key
          and dis' = Oracle.disjoint_groups v ~key in
          if List.map flow_ids dis <> List.map flow_ids dis' then
            fail (name ^ " disjoint_groups") (show_groups dis) (show_groups dis')
          else
            let nent = Array.length (T.entities v.Problem.topo) in
            let residual = Array.init nent v.Problem.available in
            let residual' = Array.copy residual in
            let admitted = Lpst.admit_into v residual sorted'
            and admitted' = Oracle.admit_into v residual' sorted' in
            if pair_ids admitted <> pair_ids admitted' then
              fail (name ^ " admit_into") (show_ids (ids_of admitted)) (show_ids (ids_of admitted'))
            else if not (same_bits residual residual') then
              Some (name ^ " admit_into: residual arrays differ")
            else None
    in
    List.find_map per_key [ ("table", table_key); ("rtf", rtf_key); ("arrival", arrival_key) ]

let qcheck =
  let open QCheck in
  Test.make ~name:"grouping, ordering and admission == the replaced code, bit for bit"
    ~count:2000 (int_range 0 1_000_000)
    (fun seed ->
      match mismatch seed with
      | None -> true
      | Some m -> Test.fail_reportf "seed %d: %s" seed m)

let tests = ("phase2", [ QCheck_alcotest.to_alcotest qcheck ])
