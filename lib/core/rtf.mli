(** Remaining Time Flexibility and Least Required Bandwidth — the two
    quantities LPST is built on (paper §4, eqs. (11)–(13)).

    LRB is the minimum constant rate that still meets the deadline;
    RTF is how long a (sub)task may wait before it becomes infeasible
    even at full path speed. A smaller RTF means a more urgent task. *)

val lrb : now:float -> deadline:float -> remaining:float -> float
(** [remaining / (deadline - now)]; [infinity] once the deadline has
    passed ([deadline <= now]). Requires [remaining >= 0]. *)

val flow_lrb : Problem.view -> Problem.flow -> float
(** LRB of one subtask flow at the view's current time. *)

val task_rtf : Problem.view -> Problem.flow list -> float
(** Eq. (13): the task's RTF is the minimum over its subtask flows of
    eq. (12), [d - max(now, s) - remaining / C(path)] with [C] the
    bottleneck {e available} capacity of the flow's route
    ([neg_infinity] when that path currently has zero capacity).
    Raises [Invalid_argument] on an empty flow list. *)

val path_feasible :
  Problem.view -> S3_workload.Task.t -> src:int -> remaining:float -> bool
(** Could a fetch of [remaining] megabits from [src] still meet the
    task's deadline at the route's current bottleneck available
    bandwidth — [lrb <= path_available] (with the engine's 1e-9
    tolerance), i.e. LPST's admission test for a single fresh flow?
    False once the deadline has passed. The watchdog uses this to
    filter hedged-swap candidates down to sources that can actually
    save the task. *)
