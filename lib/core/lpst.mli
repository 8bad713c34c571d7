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
(** Phase II alone, in RTF order: the admitted tasks, in admission
    order — exposed so Phase II can be timed on its own. *)

val admit_into :
  Problem.view -> float array ->
  (Problem.Task.t * Problem.flow list) list ->
  (Problem.Task.t * Problem.flow list) list
(** [admit_into v residual candidates] walks [candidates] in the given
    order and keeps each task whose flows all have a finite LRB and
    whose summed LRBs fit [residual] (indexed by entity id, 1e-9
    tolerance) on every entity its routes cross; each kept task's
    demand is subtracted from [residual] in place. A task's demand on
    an entity is summed in flow order, then route order. Allocation
    per call is O(entities) scratch plus the result list. *)

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
    load-bearing. The Phase III LP goes through one {!S3_lp.Lp.state}
    per instance: the solver splits it into independent blocks (one
    per rack for rack-local traffic) and warm-starts from the previous
    event's basis (see {!S3_lp.Lp.solve}). *)
