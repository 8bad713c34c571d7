(** Bandwidth-allocation primitives shared by the algorithms.

    All allocators return one rate per given flow (flows they were not
    given implicitly get rate 0) and never exceed the view's available
    capacity on any entity. *)

type rates = (int * float) list
(** [(flow_id, megabits/s)] pairs. *)

val priority_fill : Problem.view -> Problem.flow list list -> rates
(** Strict-priority filling: groups are served in order, each
    water-filled over the capacity the earlier groups left. Water
    filling is max–min fair progressive filling: every flow's rate
    rises in lockstep; a flow freezes when some entity on its route
    saturates. Flows with an empty route get an effectively unbounded
    rate capped at finishing within a nominal epsilon. EDF = one group
    per task in deadline order; FIFO = a single head group — what
    "task receives full bandwidth" means for the heuristic
    baselines. *)

val lp_allocate :
  ?state:S3_lp.Lp.state ->
  (* lint: allow unused-export — s3bench/workloads.ml still passes
     ~incremental:true; it goes when the benchmark files next change *)
  ?incremental:bool ->
  ?lower:(Problem.flow -> float) ->
  Problem.view -> Problem.flow list -> rates option
(** One LP: maximize the sum of rates subject to per-entity capacity
    and per-flow lower bounds ([lower] defaults to zero everywhere).
    [None] when the lower bounds are infeasible. Flows with empty
    routes are excluded from the LP and given their lower bound. The
    LP is built by {!S3_lp.Lp.packing} straight from each flow's
    route: one variable per networked flow, in [flows] order, and one
    capacity row per entity some route crosses, in ascending id.
    [state] is an {!S3_lp.Lp.state} reused across consecutive calls:
    its buffers hold the LP, and identical or grown problems skip or
    warm-start the solver; pass one state per algorithm instance. [incremental] is accepted
    and ignored: it once chose between a keyed block solve and a plain
    one, and {!S3_lp.Lp.solve} now has only the block solve. The
    benchmark harness still passes it, so it stays until the next
    change to the benchmark, where it will be deleted. *)

val max_feasible_scale : Problem.view -> (Problem.flow * float) list -> float
(** [max_feasible_scale v demands] is the largest [theta in [0, 1]]
    such that granting every flow [theta *] its demand fits all
    capacity entities — the deadline-blind degradation LPAll applies
    under overload. Computed exactly: theta = min over entities of
    capacity / total demand (clamped to 1). *)
