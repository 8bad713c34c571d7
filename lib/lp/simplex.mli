(** Two-phase primal simplex on a dense working tableau, built from
    compressed sparse rows, with a reusable workspace and a warm start.

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

type block = {
  start : int array;
      (** compressed sparse rows: row [r] holds entries [start.(r)] to
          [start.(r + 1) - 1] *)
  col : int array;  (** each entry's global column *)
  coef : float array;  (** each entry's coefficient; a column repeated in a row accumulates *)
  rhs : float array;  (** right-hand side per row [r] *)
  obj : float array;  (** objective coefficient per global column *)
  vars : int array;
  var0 : int;
  n : int;  (** local column [c < n] is global column [vars.(var0 + c)] *)
  rows : int array;
  row0 : int;
  m : int;  (** local row [i < m] is row [rows.(row0 + i)] *)
  local : int array;  (** global column -> local column, on the block's columns *)
}
(** One LP read straight from a larger problem's arrays: [m] of its
    rows and the [n] columns they touch, renumbered through [local].
    Every column a listed row holds must be one of the block's. *)

type outcome =
  | Optimal of { reusable : bool }
      (** [x] holds the optimal vertex and [basis] the final basis;
          [reusable] is [false] when the basis retains an artificial
          column, which a warm start cannot replay *)
  | Infeasible
  | Unbounded
  | Bailed  (** warm start only: the hint could not be installed *)

val cold : workspace -> block -> x:float array -> basis:int array -> outcome
(** Two-phase solve. On [Optimal], [x.(c)] for [c < n] is the value of
    local column [c] and [basis.(i)] for [i < m] the column basic in
    local row [i]: columns [< n] are structural, column [n + i] is the
    slack of local row [i]. Never [Bailed]. *)

val warm : workspace -> block -> hint:int array -> x:float array -> basis:int array -> outcome
(** Replay the basis [hint.(0 .. m - 1)] (same column convention as
    {!cold}) and re-optimize, skipping phase 1. [Bailed] when the basis
    cannot be installed or is primal infeasible: there is no silent
    cold fallback, so a caller orchestrating several related solves can
    observe the bail and fall back for all of them coherently. *)
