(* Phase I as lib/core/congestion.ml computed it before its factors
   moved into one array per selection: a hash table of congestion
   factors per call, seeded lazily from the view's [load] accessor or
   eagerly from the flow list, and the greedy least-congested selection
   over it. The engine's cached per-entity load must equal [of_view]'s
   factors float for float, and [Congestion.select_least_congested]
   must pick what [select_least_congested] picks here. *)

module Task = S3_workload.Task
module Problem = S3_core.Problem
module Rtf = S3_core.Rtf

(* [base] lazily seeds an entity's factor from the view's per-entity
   load: only entities a caller touches are read. *)
type t = {
  tbl : (int, float) Hashtbl.t;
  base : (int -> float) option;
}

(* Congestion factor of one entity; 0 when untouched. *)
let factor t e =
  match Hashtbl.find_opt t.tbl e with
  | Some x -> x
  | None -> (
    match t.base with
    | None -> 0.
    | Some f ->
      let x = f e in
      Hashtbl.replace t.tbl e x;
      x)

(* Commit [lrb] on every entity of a path, in array order. *)
let add_path t path lrb = Array.iter (fun e -> Hashtbl.replace t.tbl e (factor t e +. lrb)) path

(* Factors implied by the view: its [load] when present, else each flow
   with a finite LRB adds it along its route, in flow order. *)
let of_view (v : Problem.view) =
  match v.Problem.load with
  | Some f -> { tbl = Hashtbl.create 64; base = Some f }
  | None ->
    let t = { tbl = Hashtbl.create 64; base = None } in
    List.iter
      (fun f ->
        let l = Rtf.flow_lrb v f in
        if Float.is_finite l then add_path t (Problem.route_arr v f) l)
      (Lazy.force v.Problem.flows);
    t

let select_least_congested (v : Problem.view) (task : Task.t) =
  let t = of_view v in
  let lrb =
    Rtf.lrb ~now:v.Problem.now ~deadline:task.Task.deadline ~remaining:task.Task.volume
  in
  let lrb = if Float.is_finite lrb then lrb else 0. in
  let sources = task.Task.sources in
  let paths =
    Array.map
      (fun s -> S3_net.Topology.route_array v.Problem.topo ~src:s ~dst:task.Task.destination)
      sources
  in
  let taken = Array.make (Array.length sources) false in
  Array.init task.Task.k (fun _ ->
      let best = ref (-1) and best_c = ref 0. in
      Array.iteri
        (fun i s ->
          if not taken.(i) then begin
            let c = Array.fold_left (fun acc e -> max acc (factor t e)) 0. paths.(i) in
            if
              !best < 0
              || c < !best_c -. 1e-12
              || (Float.abs (c -. !best_c) <= 1e-12 && s < sources.(!best))
            then begin
              best := i;
              best_c := c
            end
          end)
        sources;
      if !best < 0 then invalid_arg "Congestion.select_least_congested: not enough candidates";
      let s = sources.(!best) in
      Array.iteri (fun i x -> if x = s then taken.(i) <- true) sources;
      add_path t paths.(!best) lrb;
      s)
