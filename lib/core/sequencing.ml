module Task = S3_workload.Task
module Topology = S3_net.Topology

(* Ascending key by [Float.compare], which is [compare] at float (NaN
   first), then ascending task id. *)
let[@inline] compare_keys ka ida kb idb =
  match Float.compare ka kb with
  | 0 -> Int.compare ida idb
  | c -> c

let compare_at keys ids i j = compare_keys keys.(i) ids.(i) keys.(j) ids.(j)

(* [Problem.by_task]'s groups by ascending (key, id). Each key is
   computed once into a float array and positions are sorted; the sort
   is stable, so groups of one task id keep their input order. *)
let ordered_tasks v ~key =
  let pairs = Array.of_list (Problem.by_task v) in
  let keys = Array.map (key v) pairs in
  let ids = Array.map (fun ((t : Task.t), _) -> t.Task.id) pairs in
  let pos = Array.init (Array.length pairs) Fun.id in
  Array.stable_sort (compare_at keys ids) pos;
  Array.fold_right (fun i acc -> pairs.(i) :: acc) pos []

(* The first pair with the least (key, id): the head of [ordered_tasks]
   in one pass. *)
let head_only v ~key =
  match Problem.by_task v with
  | [] -> []
  | first :: rest ->
    let id_of ((t : Task.t), _) = t.Task.id in
    let rec go best kbest = function
      | [] -> best
      | p :: rest ->
        let k = key v p in
        if compare_keys k (id_of p) kbest (id_of best) < 0 then go p k rest
        else go best kbest rest
    in
    let _, flows = go first (key v first) rest in
    [ flows ]

let disjoint_groups v ~key =
  let topo = v.Problem.topo in
  (* Disjointness is judged on server NICs: two tasks "share a network
     link" when a server appears in both tasks' transfers. Switch
     trunks (TOR uplinks, fat-tree/BCube switches) are deliberately
     excluded — on a tiered topology every pair of cross-rack tasks
     meets at some trunk, and counting trunks would collapse Dis* back
     to the strictly sequential baseline it is meant to improve on. *)
  let server_only e =
    match (Topology.entity topo e).Topology.kind with
    | Topology.Server_nic -> true
    | Topology.Tor_uplink | Topology.Edge_switch | Topology.Agg_switch
    | Topology.Core_switch | Topology.Bcube_switch | Topology.Leaf_switch
    | Topology.Spine_switch -> false
  in
  (* [used.(e)]: server [e] carries an admitted task's transfer. Only
     servers are ever marked. *)
  let used = Array.make (Array.length (Topology.entities topo)) false in
  let clashes flows =
    List.exists (fun f -> Array.exists (fun e -> used.(e)) (Problem.route_arr v f)) flows
  in
  let claim flows =
    List.iter
      (fun f -> Array.iter (fun e -> if server_only e then used.(e) <- true) (Problem.route_arr v f))
      flows
  in
  List.filter_map
    (fun (_, flows) ->
      if clashes flows then None
      else begin
        claim flows;
        Some flows
      end)
    (ordered_tasks v ~key)
