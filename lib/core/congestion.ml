module Task = S3_workload.Task
module Prng = S3_util.Prng

(* Each candidate path's entities are numbered by first appearance
   (candidate order, then path order), and their factors live in one
   float array for the call: read from the engine-maintained [load]
   accessor when the view has one, so Phase I costs O(candidate paths)
   probes instead of O(all flows), or else summed from the flow list.
   The accessor promises the flow list's accumulation order, so both
   give bit-identical factors. *)
let select_least_congested (v : Problem.view) (task : Task.t) =
  let lrb =
    Rtf.lrb ~now:v.Problem.now ~deadline:task.Task.deadline ~remaining:task.Task.volume
  in
  let lrb = if Float.is_finite lrb then lrb else 0. in
  let sources = task.Task.sources in
  let n = Array.length sources in
  (* Each candidate's route once per selection, from the topology's
     shared memo; candidates are scanned in source order every round. *)
  let paths =
    Array.map
      (fun s -> S3_net.Topology.route_array v.Problem.topo ~src:s ~dst:task.Task.destination)
      sources
  in
  (* Path [i]'s entities have their numbers at [slot.(start.(i) ..)];
     entity number [j] is [ents.(j)]. *)
  let start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    start.(i + 1) <- start.(i) + Array.length paths.(i)
  done;
  let slot = Array.make start.(n) 0 and ents = Array.make start.(n) 0 and nents = ref 0 in
  let rec number e j =
    if j = !nents then begin
      ents.(j) <- e;
      incr nents;
      j
    end
    else if ents.(j) = e then j
    else number e (j + 1)
  in
  for i = 0 to n - 1 do
    let path = paths.(i) in
    for j = 0 to Array.length path - 1 do
      slot.(start.(i) + j) <- number path.(j) 0
    done
  done;
  let factor = Array.make !nents 0. in
  (match v.Problem.load with
   | Some load ->
     for j = 0 to !nents - 1 do
       factor.(j) <- load ents.(j)
     done
   | None ->
     (* Each flow with a finite LRB adds it along its route, in flow
        order; flows past their deadline add nothing. *)
     let sums = Array.make (Array.length (S3_net.Topology.entities v.Problem.topo)) 0. in
     let rec fold = function
       | [] -> ()
       | f :: rest ->
         let l = Rtf.flow_lrb v f in
         if Float.is_finite l then begin
           let route = Problem.route_arr v f in
           for i = 0 to Array.length route - 1 do
             let e = route.(i) in
             sums.(e) <- sums.(e) +. l
           done
         end;
         fold rest
     in
     fold (Lazy.force v.Problem.flows);
     for j = 0 to !nents - 1 do
       factor.(j) <- sums.(ents.(j))
     done);
  let taken = Array.make n false in
  let chosen = Array.make task.Task.k 0 in
  for round = 0 to task.Task.k - 1 do
    let best = ref (-1) and best_c = ref 0. in
    for i = 0 to n - 1 do
      if not taken.(i) then begin
        (* The path's worst factor, [max] spelled out as Stdlib's. *)
        let c = ref 0. in
        for j = start.(i) to start.(i + 1) - 1 do
          let x = factor.(slot.(j)) in
          c := if !c >= x then !c else x
        done;
        let c = !c in
        if
          !best < 0
          || c < !best_c -. 1e-12
          || (Float.abs (c -. !best_c) <= 1e-12 && sources.(i) < sources.(!best))
        then begin
          best := i;
          best_c := c
        end
      end
    done;
    if !best < 0 then invalid_arg "Congestion.select_least_congested: not enough candidates";
    let s = sources.(!best) in
    for i = 0 to n - 1 do
      if sources.(i) = s then taken.(i) <- true
    done;
    for j = start.(!best) to start.(!best + 1) - 1 do
      let k = slot.(j) in
      factor.(k) <- factor.(k) +. lrb
    done;
    chosen.(round) <- s
  done;
  chosen

let select_random g (task : Task.t) =
  Array.of_list (Prng.sample g task.Task.k (Array.to_list task.Task.sources))
