module Task = S3_workload.Task

type source_policy =
  | Random_sources of int
  | Least_congested
  | Shortest_path

type reselect =
  Problem.view ->
  Problem.Task.t ->
  eligible:int array ->
  need:int ->
  remaining:float array ->
  int array

type t = {
  name : string;
  select_sources : Problem.view -> Problem.Task.t -> int array;
  allocate : Problem.view -> Allocation.rates;
  abandon_expired : bool;
  reselect : reselect option;
}

(* The [n] candidates with the fewest hops to the task's destination,
   ties toward lower server ids. *)
let shortest_sources (view : Problem.view) (task : Task.t) candidates n =
  let hops s =
    List.length (S3_net.Topology.route view.Problem.topo ~src:s ~dst:task.Task.destination)
  in
  Array.to_list candidates
  |> List.stable_sort (fun a b ->
         match compare (hops a) (hops b) with 0 -> compare a b | c -> c)
  |> List.filteri (fun i _ -> i < n)
  |> Array.of_list

let source_selector = function
  | Least_congested -> Congestion.select_least_congested
  | Random_sources seed ->
    let g = S3_util.Prng.create seed in
    fun _view task -> Congestion.select_random g task
  | Shortest_path -> fun view task -> shortest_sources view task task.Task.sources task.Task.k

let reselect_of_policy = function
  | Least_congested ->
    fun (view : Problem.view) (task : Task.t) ~eligible ~need ~remaining ->
      (* Phase I re-run on the shrunken candidate set: score the current
         view's congestion and pick the [need] least congested paths.
         The LRB is scored against the worst remaining slot — with
         resume that can be far below the chunk volume, making a
         partially-fetched chunk cheaper to place than a fresh one.
         Restart-mode callers pass the full volume per slot, so the
         score (and the selection) is bit-identical to the
         pre-remaining behaviour. *)
      let worst = Array.fold_left Float.max 0. remaining in
      Congestion.select_least_congested view
        { task with Task.sources = eligible; k = need; volume = worst }
  | Random_sources seed ->
    (* A private stream, decoupled from the arrival-time selector so
       re-homing never perturbs the sources of later arrivals. *)
    let g = S3_util.Prng.create (seed + 0x5e1ec7) in
    fun _view _task ~eligible ~need ~remaining:_ ->
      Array.of_list (S3_util.Prng.sample g need (Array.to_list eligible))
  | Shortest_path ->
    fun view task ~eligible ~need ~remaining:_ -> shortest_sources view task eligible need
