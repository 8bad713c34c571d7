(** Task-ordering helpers shared by the heuristic baselines. *)

val sort_pairs :
  Problem.view ->
  key:(Problem.view -> Problem.Task.t * Problem.flow list -> float) ->
  (Problem.Task.t * Problem.flow list) list ->
  (Problem.Task.t * Problem.flow list) list
(** Sort already-grouped (task, flows) pairs by ascending key (ties by
    task id) — {!ordered_tasks} on a given list of groups, for callers
    that split {!Problem.by_task}'s groups themselves. Keys compare by
    [Float.compare] (NaN first); pairs with equal key and id keep
    their input order. [key] is called once per pair, in input
    order. *)

val ordered_tasks :
  Problem.view ->
  key:(Problem.view -> Problem.Task.t * Problem.flow list -> float) ->
  (Problem.Task.t * Problem.flow list) list
(** Active tasks with their flows, sorted by ascending key (ties by
    task id). *)

val head_only :
  Problem.view ->
  key:(Problem.view -> Problem.Task.t * Problem.flow list -> float) ->
  Problem.flow list list
(** The strictly sequential discipline of plain FIFO/EDF/LSTF: only the
    lowest-key task runs; everyone else waits. Returns at most one
    priority group: the head of {!ordered_tasks}, found in one O(tasks)
    pass without sorting. *)

val disjoint_groups :
  Problem.view ->
  key:(Problem.view -> Problem.Task.t * Problem.flow list -> float) ->
  Problem.flow list list
(** The Dis* discipline: walk tasks in key order and admit each task
    whose transfers touch no {e server} an already-admitted task
    touches; each admitted task forms its own group. Disjointness
    ignores switch trunks — on a tiered topology all cross-rack tasks
    meet at some trunk, and counting trunks would collapse Dis* back to
    the sequential baseline (see DESIGN.md assumptions). *)
