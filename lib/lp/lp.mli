(** Linear-programming front end.

    The problems produced by the scheduler are small packing LPs:
    maximize total allocated bandwidth subject to per-server and
    per-switch capacity constraints and per-task lower bounds (least
    required bandwidth). This module is the stable interface; the exact
    solver lives in {!Simplex} and the approximate one in {!Packing}. *)

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

val pp_error : Format.formatter -> error -> unit

type backend =
  | Exact  (** two-phase primal simplex *)
  | Approx of float  (** multiplicative-weights packing solver with accuracy
                         parameter epsilon; falls back to [Exact] when the
                         problem is not a pure packing instance *)

type state
(** Reusable solver state: a simplex tableau workspace and a packing
    CSR/heap arena (no per-solve allocation of the working matrices)
    plus, for the exact backend, the last solved problem's optimal
    basis and solution. When consecutive exact solves repeat a problem
    the cached solution is returned directly; when the constraint
    structure is unchanged or only grew (old rows a coefficient-wise
    prefix of the new ones, variables appended), the previous basis
    warm-starts phase 2. The approximate backend reuses the packing
    workspace across solves. Any mismatch falls back to a cold solve,
    so state affects speed, never results. Reuse one state per logical
    problem stream; do not share it across concurrent solves — give
    each domain its own. *)

val create_state : unit -> state

type identity
(** Stable external names for a problem's variables and rows (flow ids,
    entity ids). Naming them lets {!solve} decompose the LP along the
    connected components of the row/column incidence graph and cache
    per-block solutions across consecutive solves: a block untouched by
    the latest change is recognized by its keys even when the global
    variable numbering shifted, and its cached solution is returned
    without re-solving. Block decomposition and caching are bit-exact
    with respect to the unkeyed path — cross-block tableau coefficients
    are exactly zero, pivot updates skip zero multipliers, and the
    entering rule only interleaves per-block pivot sequences — so keyed
    solves return byte-identical solutions, only faster. Keys must be
    unique within a solve and stable across solves. *)

val identity : var_keys:int array -> row_keys:int array -> identity
(** [identity ~var_keys ~row_keys] names variable [j] with
    [var_keys.(j)] and constraint row [i] with [row_keys.(i)]. *)

val make :
  nvars:int -> objective:float array -> ?lower:float array ->
  constr list -> problem
(** [make ~nvars ~objective constrs] builds a problem; [lower] defaults
    to all zeros. Raises [Invalid_argument] on dimension mismatches,
    out-of-range variable indices, or negative lower bounds. *)

val solve :
  ?backend:backend -> ?state:state -> ?identity:identity -> problem ->
  (solution, error) result
(** Solve the problem. The returned [values] satisfy every constraint
    up to a small numerical tolerance and respect the lower bounds.
    [state] enables workspace reuse, warm starts and solution caching
    across consecutive solves (see {!state}). [identity] (requires
    [state], [Exact] backend; ignored otherwise) enables block
    decomposition and per-block caching (see {!identity}); a stream of
    related solves through one state should pass it consistently —
    mixing keyed and unkeyed solves on one state is allowed but resets
    the keyed continuity. *)

val feasible : ?tol:float -> problem -> float array -> bool
(** [feasible p x] checks [x] against all constraints and lower bounds
    of [p] with tolerance [tol] (default [1e-6]). *)

val objective_of : problem -> float array -> float
(** Evaluate the objective at a point. *)
