(** Linear-programming front end.

    The problems produced by the scheduler are small packing LPs:
    maximize total allocated bandwidth subject to per-server and
    per-switch capacity constraints and per-task lower bounds (least
    required bandwidth). This module is the stable interface; the
    simplex itself lives in {!Simplex}. Every solve is exact and goes
    one way: split the LP into the connected components of its
    row/column incidence graph and solve each on its own tableau. *)

type constr = {
  coeffs : (int * float) list;  (** sparse row: (variable index, coefficient) *)
  bound : float;  (** right-hand side of [row . x <= bound] *)
}

type problem = {
  nvars : int;
  objective : float array;  (** maximize [objective . x]; length [nvars] *)
  constraints : constr list;
  lower : float array;  (** per-variable lower bounds (>= 0); length [nvars] *)
}

type solution = {
  values : float array;
  objective_value : float;
}

type error =
  | Infeasible
  | Unbounded

type state
(** Reusable solver state: a simplex tableau workspace (no per-solve
    allocation of the working matrices) plus the last solved problem's
    optimal basis and solution. When consecutive solves repeat a
    problem the cached solution is returned directly; when the
    constraint structure is unchanged or only grew (old rows a
    coefficient-wise prefix of the new ones, variables appended), the
    previous basis warm-starts phase 2 of every block. If any block
    cannot replay its part of that basis, every block is solved cold.
    A warm start reaches the same optimal value as a cold solve, but
    where the optimum is not unique it may stop at a different optimal
    vertex, so a stream of solves through one state is deterministic
    in its inputs, not in each problem alone. Reuse one state per
    logical problem stream; do not share it across concurrent solves —
    give each domain its own. *)

val create_state : unit -> state

val make :
  nvars:int -> objective:float array -> ?lower:float array ->
  constr list -> problem
(** [make ~nvars ~objective constrs] builds a problem; [lower] defaults
    to all zeros. Raises [Invalid_argument] on dimension mismatches,
    out-of-range variable indices, or negative lower bounds. *)

val solve : ?state:state -> problem -> (solution, error) result
(** Solve the problem exactly. The returned [values] satisfy every
    constraint up to a small numerical tolerance and respect the lower
    bounds. The LP is split into the connected components of its
    row/column incidence graph, and each block is solved on its own
    tableau; the result equals that of one simplex over the whole
    problem, because a pivot never crosses a block. [Infeasible] wins
    over [Unbounded] when blocks disagree, as phase 1 of a single
    tableau would. [state] enables workspace reuse, the exact-repeat
    memo and warm starts across consecutive solves (see {!state});
    without it the solve is cold. *)
