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
   cache, which hands out shared arrays without allocating. *)
let route_arr v f = Topology.route_array v.topo ~src:f.source ~dst:f.task.Task.destination

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

(* A view lists each task's flows as one run, so the groups are the
   runs. Walking the reversed list builds each run, and the list of
   runs, in order; a group's task is its first flow's. *)
let by_task v =
  let close group groups =
    match group with [] -> groups | f :: _ -> (f.task, group) :: groups
  in
  let rec go group groups = function
    | [] -> close group groups
    | f :: rest -> (
      match group with
      | g :: _ when g.task.Task.id = f.task.Task.id -> go (f :: group) groups rest
      | _ -> go [ f ] (close group groups) rest)
  in
  go [] [] (List.rev (Lazy.force v.flows))

let deadline_slack v f = f.task.Task.deadline -. v.now
