(** Task-ordering helpers shared by the heuristic baselines. *)

val compare_at : float array -> int array -> int -> int -> int
(** [compare_at keys ids i j] orders positions [i] and [j] of parallel
    key and task-id arrays the way every task ranking here does:
    ascending key by [Float.compare], which is [compare] at float (NaN
    first, [-0.] equal to [0.]), then ascending task id. LPST's Phase
    II sorts its runs by it after its held-first split. *)

val head_only :
  Problem.view ->
  key:(Problem.view -> Problem.Task.t * Problem.flow list -> float) ->
  Problem.flow list list
(** The strictly sequential discipline of plain FIFO/EDF/LSTF: only the
    lowest-key task runs; everyone else waits. Returns at most one
    priority group: the task with the least (key, id) by
    {!compare_at}'s order, found in one O(tasks) pass without sorting. *)

val disjoint_groups :
  Problem.view ->
  key:(Problem.view -> Problem.Task.t * Problem.flow list -> float) ->
  Problem.flow list list
(** The Dis* discipline: walk tasks in (key, id) order by
    {!compare_at} (one stable sort, each key computed once) and admit
    each task whose transfers touch no {e server} an already-admitted
    task touches; each admitted task forms its own group. Disjointness
    ignores switch trunks — on a tiered topology all cross-rack tasks
    meet at some trunk, and counting trunks would collapse Dis* back to
    the sequential baseline (see DESIGN.md assumptions). *)
