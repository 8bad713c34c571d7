module Task = S3_workload.Task
module Prng = S3_util.Prng

(* [base] lazily seeds an entity's factor from the engine-maintained
   per-entity load (see {!Problem.view}[.load]): only entities a
   caller actually touches are materialized, so Phase I costs
   O(candidate paths) probes instead of O(all flows). The accessor promises
   the same accumulation order as the eager scan below, so both
   representations hold bit-identical factors. *)
type t = {
  tbl : (int, float) Hashtbl.t;
  base : (int -> float) option;
}

let factor t e =
  match Hashtbl.find_opt t.tbl e with
  | Some x -> x
  | None ->
    (match t.base with
     | None -> 0.
     | Some f ->
       let x = f e in
       Hashtbl.replace t.tbl e x;
       x)

let add_path t path lrb =
  Array.iter (fun e -> Hashtbl.replace t.tbl e (factor t e +. lrb)) path

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
  (* Each candidate's route once per selection, from the topology's
     shared memo; candidates are scanned in source order every round. *)
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

let select_random g (task : Task.t) =
  Array.of_list (Prng.sample g task.Task.k (Array.to_list task.Task.sources))
