(* Shared fixtures for the core-scheduling tests. *)

module T = S3_net.Topology
module Task = S3_workload.Task
module Problem = S3_core.Problem

let topo = T.two_tier ~racks:3 ~servers_per_rack:3 ~cst:1000. ~cta:3000.

let task ?(id = 0) ?(arrival = 0.) ?(deadline = 10.) ?(volume = 1000.) ?(k = 1)
    ?(sources = [| 1 |]) ?(destination = 0) () =
  Task.v ~id ~arrival ~deadline ~volume ~k ~sources ~destination ()

let flow ?(flow_id = 0) ?(source = 1) ?remaining task =
  { Problem.flow_id;
    task;
    source;
    remaining = Option.value ~default:task.Task.volume remaining
  }

let raw_available t e = (T.entity t e).T.capacity

let view ?(now = 0.) ?(topo = topo) ?available flows =
  let available = Option.value ~default:(raw_available topo) available in
  { Problem.now; topo; flows = lazy flows; available; load = None }

(* Flows of a whole task: one per selected source, ids offset by task id. *)
let flows_of ?(selected = None) (t : Task.t) =
  let sources =
    match selected with
    | Some s -> s
    | None -> Array.sub t.Task.sources 0 t.Task.k
  in
  Array.to_list
    (Array.mapi (fun i s -> flow ~flow_id:((t.Task.id * 100) + i) ~source:s t) sources)

let rates_table rates =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (fid, r) -> Hashtbl.replace tbl fid r) rates;
  tbl

let rate_of rates fid = Option.value ~default:0. (Hashtbl.find_opt (rates_table rates) fid)

(* Check a rate assignment against a view's capacities. *)
let respects_capacities ?(tol = 1e-6) (v : Problem.view) rates =
  let usage = Hashtbl.create 32 in
  List.iter
    (fun f ->
      let r = rate_of rates f.Problem.flow_id in
      if r > 0. then
        Array.iter
          (fun e ->
            Hashtbl.replace usage e (Option.value ~default:0. (Hashtbl.find_opt usage e) +. r))
          (Problem.route_arr v f))
    (Lazy.force v.Problem.flows);
  Hashtbl.fold (fun e used ok -> ok && used <= v.Problem.available e +. tol) usage true
