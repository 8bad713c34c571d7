(** LPST — Linear Programming for Selected Tasks, the paper's
    contribution (Algorithm 1).

    Phase I (at arrival): congestion-aware source selection
    ({!Congestion.select_least_congested}). Phase II (every event):
    rank tasks by Remaining Time Flexibility and admit them greedily
    while their least-required bandwidths fit the remaining capacity;
    tasks that do not fit wait — they are reconsidered at the next
    event rather than starved. Phase III: one LP over the admitted
    flows maximizes total bandwidth subject to capacity, with each
    flow's LRB as a lower bound, so admitted tasks finish early and by
    their deadline.

    Admission is {e sticky}: an admitted task keeps its reservation
    across events until it completes, expires, or a foreground-traffic
    drop forces an eviction (most-flexible-first). Without stickiness a
    half-finished task can lose its slot to a waiting one and both miss
    — stickiness is what makes the paper's "admitted tasks are
    guaranteed to meet their individual deadlines" hold. A consequence
    is that an instance carries per-run state: create a fresh one per
    execution.

    The [sources], [admission] and [bandwidth] knobs exist for the
    paper's Fig. 3a ablations (LPST-Pi keeps only phase i, replacing
    the others with simple heuristics) and default to the real
    algorithm. *)

type admission =
  | Rtf_order  (** Phase II as published: ascending RTF *)
  | Arrival_order  (** ablation heuristic: "earlier start time first" *)

type bandwidth =
  | Lp_max  (** Phase III as published: LP utilization maximization *)
  | Lrb_only  (** ablation heuristic: every admitted task gets exactly LRB *)

val admit : Problem.view -> (Problem.Task.t * Problem.flow list) list
(** Phase II alone, in RTF order, as a fresh instance's first call runs
    it: the admitted tasks with their flows, in admission order —
    exposed so Phase II can be timed on its own. It runs the same code
    as [allocate], on a fresh scratch with nothing held. A task is
    admitted when all its flows have a finite LRB and their LRBs, summed
    per entity in flow order and then route order, fit what the tasks
    before it left of [available] (1e-9 tolerance) on every entity their
    routes cross. Cost: one pass over the view's flows, one
    [available] read per entity, each task's RTF folded once, one
    stable sort of the tasks and the admission walk. It allocates the
    scratch (O(tasks + entities), the sort's order and merge arrays
    included), the floats its [available] reads return, and the
    result; each LRB is computed in place, unboxed. *)

val lpst :
  ?sources:Algorithm.source_policy ->
  ?admission:admission ->
  ?bandwidth:bandwidth ->
  ?sticky:bool ->
  ?name:string ->
  unit -> Algorithm.t
(** [sticky] (default [true]) keeps admitted tasks admitted across
    events; [false] re-triages from scratch on every event — provided
    only for the ablation benchmark that demonstrates why stickiness is
    load-bearing.

    Each instance keeps its Phase II scratch, grown on demand and
    reused by every call: per task run of the view, its first cell,
    length, task, task id, held flag, key and place in the admission
    order, with the sort's merge array; per entity, the availability
    that admission consumes and the current task's demand stack. Once
    the scratch has grown, Phase II allocates only the floats its
    [available] reads return; a call also allocates the admitted flow
    list and the rates. Held tasks are
    re-triaged first, in key order, then the rest. The Phase III LP
    goes through one
    {!S3_lp.Lp.state} per instance: the solver splits it into
    independent blocks (one per rack for rack-local traffic) and
    warm-starts from the previous event's basis (see
    {!S3_lp.Lp.solve}). *)
