module Prng = S3_util.Prng
module Topology = S3_net.Topology
module Placement = S3_storage.Placement
module Cluster = S3_storage.Cluster

type config = {
  num_tasks : int;
  arrival_rate : float;
  chunk_size_mb : float;
  code_mix : ((int * int) * float) list;
  deadline_factor : float;
  deadline_jitter : float;
  placement : Placement.policy;
}

let baseline =
  { num_tasks = 1000;
    arrival_rate = 0.1;
    chunk_size_mb = 64.;
    code_mix = [ ((9, 6), 1.) ];
    deadline_factor = 10.;
    deadline_jitter = 0.;
    placement = Placement.Rack_aware
  }

let mb_to_megabits mb = mb *. 8.

let pick_code g mix =
  match mix with
  | [] -> invalid_arg "Generator: empty code mix"
  | [ (code, _) ] -> code
  | _ ->
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. mix in
    if total <= 0. then invalid_arg "Generator: non-positive code-mix weights";
    let r = Prng.float g total in
    let rec go acc = function
      | [] -> assert false
      | [ (code, _) ] -> code
      | (code, w) :: rest -> if r < acc +. w then code else go (acc +. w) rest
    in
    go 0. mix

(* The deadline [factor] least required times after [arrival]. An
   extreme chunk size, factor or link capacity can round the sum back
   onto the arrival, which [Task.v] would reject without naming them. *)
let deadline ~arrival ~factor ~lrt =
  let d = arrival +. (factor *. lrt) in
  if not (d > arrival) then
    invalid_arg
      "Generator: the deadline rounds onto the arrival (chunk size or deadline factor too \
       small, or link capacity too large)";
  d

let server_link_capacity topo =
  (Topology.entity topo (Topology.server_entity topo 0)).Topology.capacity

(* Every check is spelled so that NaN fails it. *)
let validate config =
  let finite_positive x = Float.is_finite x && x > 0. in
  if config.num_tasks < 0 then invalid_arg "Generator: negative num_tasks";
  if not (finite_positive config.arrival_rate) then
    invalid_arg "Generator: arrival_rate must be positive";
  if not (finite_positive config.chunk_size_mb) then
    invalid_arg "Generator: chunk_size_mb must be positive";
  if not (finite_positive config.deadline_factor) then
    invalid_arg "Generator: deadline_factor must be positive";
  if not (config.deadline_jitter >= 0. && config.deadline_jitter < 1.) then
    invalid_arg "Generator: deadline_jitter must be in [0, 1)";
  List.iter
    (fun ((n, k), w) ->
      if k <= 0 || n < k then invalid_arg "Generator: bad (n, k) in code mix";
      if not (Float.is_finite w && w >= 0.) then
        invalid_arg "Generator: negative code-mix weight")
    config.code_mix

let generate g topo config =
  validate config;
  let cst = server_link_capacity topo in
  let nservers = Topology.servers topo in
  let volume = mb_to_megabits config.chunk_size_mb in
  let now = ref 0. in
  List.init config.num_tasks (fun id ->
      now := !now +. Prng.exponential g ~rate:config.arrival_rate;
      let n, k = pick_code g config.code_mix in
      (* LRT is the task's least required time: all k chunks must cross
         the destination's link, so k*v/CST at full speed. *)
      let lrt = float_of_int k *. volume /. cst in
      if n + 1 > nservers then
        invalid_arg "Generator: topology too small for the code (need n + 1 servers)";
      (* Place the stripe plus the repair destination on n + 1 distinct
         servers: the first n hold the surviving/lost chunks, and the
         extra one receives the rebuilt chunk. One stripe member is the
         lost chunk, so candidates are the other n - 1. *)
      let stripe = Placement.place g topo config.placement ~object_id:id ~n:(min (n + 1) nservers) in
      let destination = stripe.(n) in
      let lost = Prng.int g n in
      let sources =
        Array.of_list
          (List.filteri (fun i _ -> i <> lost) (Array.to_list (Array.sub stripe 0 n)))
      in
      let factor =
        if config.deadline_jitter <= 0. then config.deadline_factor
        else
          Prng.uniform g
            (config.deadline_factor *. (1. -. config.deadline_jitter))
            (config.deadline_factor *. (1. +. config.deadline_jitter))
      in
      Task.v ~id ~kind:Task.Repair ~arrival:!now
        ~deadline:(deadline ~arrival:!now ~factor ~lrt)
        ~volume ~k ~sources ~destination ())

type kind_profile = {
  kind : Task.kind;
  weight : float;
  profile_code : (int * int) option;
  profile_deadline_factor : float;
}

let default_mix =
  [ { kind = Task.Repair; weight = 0.5; profile_code = Some (9, 6); profile_deadline_factor = 6. };
    { kind = Task.Rebalance; weight = 0.3; profile_code = None; profile_deadline_factor = 12. };
    { kind = Task.Backup; weight = 0.2; profile_code = Some (9, 6); profile_deadline_factor = 25. }
  ]

let pick_profile g profiles =
  match profiles with
  | [] -> invalid_arg "Generator.generate_mixed: empty profile list"
  | [ p ] -> p
  | _ ->
    let total = List.fold_left (fun acc p -> acc +. p.weight) 0. profiles in
    if total <= 0. then invalid_arg "Generator.generate_mixed: non-positive weights";
    let r = Prng.float g total in
    let rec go acc = function
      | [] -> assert false
      | [ p ] -> p
      | p :: rest -> if r < acc +. p.weight then p else go (acc +. p.weight) rest
    in
    go 0. profiles

let generate_mixed g topo ~num_tasks ~arrival_rate ~chunk_size_mb
    ?(deadline_jitter = 0.) ?(profiles = default_mix) () =
  if num_tasks < 0 then invalid_arg "Generator.generate_mixed: negative num_tasks";
  if arrival_rate <= 0. then invalid_arg "Generator.generate_mixed: arrival_rate";
  if chunk_size_mb <= 0. then invalid_arg "Generator.generate_mixed: chunk_size_mb";
  if deadline_jitter < 0. || deadline_jitter >= 1. then
    invalid_arg "Generator.generate_mixed: deadline_jitter must be in [0, 1)";
  List.iter
    (fun p ->
      if p.weight < 0. then invalid_arg "Generator.generate_mixed: negative weight";
      if p.profile_deadline_factor <= 0. then
        invalid_arg "Generator.generate_mixed: deadline factor";
      match p.profile_code with
      | Some (n, k) when k <= 0 || n < k -> invalid_arg "Generator.generate_mixed: bad code"
      | _ -> ())
    profiles;
  let cst = server_link_capacity topo in
  let nservers = Topology.servers topo in
  let volume = mb_to_megabits chunk_size_mb in
  let now = ref 0. in
  (* Jitter draws happen only when requested, so jitter-free callers
     keep their historical PRNG streams (and task lists) byte-exact. *)
  let factor_of g base =
    if deadline_jitter <= 0. then base
    else
      Prng.uniform g
        (base *. (1. -. deadline_jitter))
        (base *. (1. +. deadline_jitter))
  in
  List.init num_tasks (fun id ->
      now := !now +. Prng.exponential g ~rate:arrival_rate;
      let p = pick_profile g profiles in
      match p.profile_code with
      | None ->
        (* Single-source move: one random source, one random other
           destination. *)
        let source = Prng.int g nservers in
        let destination =
          let d = Prng.int g (nservers - 1) in
          if d >= source then d + 1 else d
        in
        let lrt = volume /. cst in
        Task.v ~id ~kind:p.kind ~arrival:!now
          ~deadline:(deadline ~arrival:!now ~factor:(factor_of g p.profile_deadline_factor) ~lrt)
          ~volume ~k:1 ~sources:[| source |] ~destination ()
      | Some (n, k) ->
        if n + 1 > nservers then
          invalid_arg "Generator.generate_mixed: topology too small for the code";
        let stripe = Placement.place g topo Placement.Rack_aware ~object_id:id ~n:(n + 1) in
        let destination = stripe.(n) in
        let lost = Prng.int g n in
        let sources =
          Array.of_list
            (List.filteri (fun i _ -> i <> lost) (Array.to_list (Array.sub stripe 0 n)))
        in
        let lrt = float_of_int k *. volume /. cst in
        Task.v ~id ~kind:p.kind ~arrival:!now
          ~deadline:(deadline ~arrival:!now ~factor:(factor_of g p.profile_deadline_factor) ~lrt)
          ~volume ~k ~sources ~destination ())

let repair_tasks_on_failure g cluster ~server ~now ~deadline_factor ~first_id =
  let topo = Cluster.topology cluster in
  let cst = server_link_capacity topo in
  let lost = Cluster.fail_server cluster server in
  let next_id = ref first_id in
  List.filter_map
    (fun (fid, _chunk) ->
      let f = Cluster.file cluster fid in
      let survivors = Cluster.survivors cluster fid in
      if List.length survivors < f.Cluster.k then None
      else
        match Cluster.repair_destination cluster g fid with
        | None -> None
        | Some destination ->
          let id = !next_id in
          incr next_id;
          let sources = Array.of_list (List.map snd survivors) in
          let lrt = float_of_int f.Cluster.k *. f.Cluster.chunk_volume /. cst in
          Some
            (Task.v ~id ~kind:Task.Repair ~arrival:now
               ~deadline:(now +. (deadline_factor *. lrt))
               ~volume:f.Cluster.chunk_volume ~k:f.Cluster.k ~sources ~destination ()))
    lost

let rebalance_tasks _g cluster ~moves ~now ~deadline_factor ~first_id =
  let topo = Cluster.topology cluster in
  let cst = server_link_capacity topo in
  let next_id = ref first_id in
  List.filter_map
    (fun (fid, chunk, new_server) ->
      let f = Cluster.file cluster fid in
      if chunk < 0 || chunk >= f.Cluster.n then invalid_arg "Generator.rebalance_tasks: chunk";
      let holder = f.Cluster.locations.(chunk) in
      if holder < 0 || holder = new_server then None
      else begin
        let id = !next_id in
        incr next_id;
        let lrt = f.Cluster.chunk_volume /. cst in
        Some
          (Task.v ~id ~kind:Task.Rebalance ~arrival:now
             ~deadline:(now +. (deadline_factor *. lrt))
             ~volume:f.Cluster.chunk_volume ~k:1 ~sources:[| holder |]
             ~destination:new_server ())
      end)
    moves
