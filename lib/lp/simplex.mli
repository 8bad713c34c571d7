(** Two-phase primal simplex on a dense working tableau, with a
    sparse-aware build, a reusable workspace, and an optional warm
    start.

    Solves [maximize obj . x  subject to  A x <= rhs, x >= 0] where
    entries of [rhs] may be negative (phase 1 with artificial variables
    restores feasibility). Pivot selection uses Dantzig's rule with a
    Bland's-rule fallback after a stall budget, so the method terminates
    on degenerate instances. Intended for the small/medium sparse
    problems produced by the scheduler (tens to a few hundred variables
    and rows, a handful of nonzeros per row). *)

type workspace
(** A reusable arena of tableau row buffers and a basis buffer, grown to
    the largest problem shape solved through it. Reusing one workspace
    across consecutive solves eliminates per-call tableau allocation. A
    workspace carries no problem state between calls beyond its capacity
    and may be shared by any sequence of problems (but not used
    concurrently). *)

val create_workspace : unit -> workspace

val warm_solve :
  workspace ->
  obj:float array ->
  rows:(int * float) list array ->
  rhs:float array ->
  warm:int array ->
  (float array * int array option, [ `Infeasible | `Unbounded ]) result option
(** Low-level warm start: replay [warm] (same column convention as
    {!maximize_sparse}) and re-optimize. Returns [None] when the basis
    cannot be installed or is primal infeasible —
    unlike {!maximize_sparse} there is no silent cold fallback, so a
    caller orchestrating several related solves can observe the bail
    and fall back for all of them coherently. *)

val maximize_sparse :
  ?ws:workspace ->
  ?warm:int array ->
  obj:float array ->
  rows:(int * float) list array ->
  rhs:float array ->
  unit ->
  (float array * int array option, [ `Infeasible | `Unbounded ]) result
(** [maximize_sparse ~obj ~rows ~rhs ()] solves the LP given as sparse
    constraint rows of [(column, coefficient)] pairs (duplicate columns
    accumulate). Returns the optimal vertex together with the final
    basis ([basis.(i)] = column basic in row [i]; [None] when the basis
    retains an artificial column and is therefore not reusable).

    [ws] supplies a reusable workspace (a private one is created
    otherwise). [warm] seeds phase 2 from a previous solve's basis:
    columns [< n] are structural, columns [n + i] the slack of row [i].
    The basis is installed by explicit pivots and used only if the
    resulting basic solution is primal feasible; on any mismatch the
    solver silently falls back to a cold two-phase solve, so a stale or
    wrong hint can cost time but never correctness. *)
