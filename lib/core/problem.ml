module Task = S3_workload.Task
module Topology = S3_net.Topology

type flow = {
  flow_id : int;
  task : Task.t;
  source : int;
  remaining : float;
}

type view = {
  now : float;
  topo : Topology.t;
  flows : flow list Lazy.t;
  available : int -> float;
  load : (int -> float) option;
}

(* All planning-time routing goes through the topology's flat route
   cache; [route_arr] is the allocation-free variant for hot loops. *)
let route_arr v f = Topology.route_array v.topo ~src:f.source ~dst:f.task.Task.destination

let route v f = Array.to_list (route_arr v f)

let path_available v ~src ~dst =
  let ids = Topology.route_array v.topo ~src ~dst in
  if Array.length ids = 0 then infinity
  else
    Array.fold_left
      (fun acc id ->
        let a = v.available id in
        if acc <= a then acc else a)
      infinity ids

let flow_path_available v f =
  path_available v ~src:f.source ~dst:f.task.Task.destination

(* One table lookup per run of a task id: engine views list each task's
   flows as one run, so that is one lookup per task. A task id that
   comes back after another task's run finds its group in the table. *)
let by_task v =
  let tbl = Hashtbl.create 64 in
  let rec start order = function
    | [] -> order
    | f :: rest -> (
      let id = f.task.Task.id in
      match Hashtbl.find_opt tbl id with
      | Some cell ->
        cell := f :: !cell;
        run order id cell rest
      | None ->
        let cell = ref [ f ] in
        Hashtbl.replace tbl id cell;
        run ((f.task, cell) :: order) id cell rest)
  and run order id cell = function
    | f :: rest when f.task.Task.id = id ->
      cell := f :: !cell;
      run order id cell rest
    | flows -> start order flows
  in
  List.rev_map (fun (t, cell) -> (t, List.rev !cell)) (start [] (Lazy.force v.flows))

let deadline_slack v f = f.task.Task.deadline -. v.now
