(** Task-ordering helpers shared by the heuristic baselines.

    Every ranking here orders tasks by ascending key by
    [Float.compare], which is [compare] at float (NaN first, [-0.]
    equal to [0.]), then by ascending task id: the (key, id) order.
    LPST's Phase II sorts its runs in the same order after its
    held-first split, with its own copy of the comparison. *)

val head_only :
  Problem.view ->
  key:(Problem.view -> Problem.Task.t * Problem.flow list -> float) ->
  Problem.flow list list
(** The strictly sequential discipline of plain FIFO/EDF/LSTF: only the
    lowest-key task runs; everyone else waits. Returns at most one
    priority group: the task with the least (key, id), found in one
    O(tasks) pass without sorting. *)

val disjoint_groups :
  Problem.view ->
  key:(Problem.view -> Problem.Task.t * Problem.flow list -> float) ->
  Problem.flow list list
(** The Dis* discipline: walk tasks in (key, id) order (one stable
    sort, each key computed once) and admit each task whose transfers
    touch no {e server} an already-admitted task touches; each admitted
    task forms its own group. Disjointness
    ignores switch trunks — on a tiered topology all cross-rack tasks
    meet at some trunk, and counting trunks would collapse Dis* back to
    the sequential baseline (see DESIGN.md assumptions). *)
