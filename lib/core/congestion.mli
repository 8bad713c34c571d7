(** Source selection (LPST Phase I).

    The congestion factor of a capacity entity is the sum of the least
    required bandwidths of the active flows crossing it — the load the
    entity is already committed to. Phase I sends a new task's
    subtasks to the candidate sources whose paths have the smallest
    worst-entity congestion, updating factors greedily as each source
    is chosen (paper, Algorithm 1 lines 2–8). *)

val select_least_congested : Problem.view -> Problem.Task.t -> int array
(** Phase I: pick the task's [k] sources greedily by least congested
    path, breaking ties toward lower server ids for determinism.

    Each distinct entity of the candidate paths has its factor read
    once into an array for the call: from the view's [load] accessor
    when it has one (no flow is read), else from one pass over the
    flow list that adds each flow's finite LRB along its route, in
    flow order (flows past their deadline add nothing). Each chosen
    path then adds the task's LRB to its entities. Raises
    [Invalid_argument] when fewer than [k] distinct candidates
    exist. *)

val select_random : S3_util.Prng.t -> Problem.Task.t -> int array
(** Uniform k-subset of the candidates — the FIFO/EDF-family policy. *)
