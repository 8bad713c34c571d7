(** Linear-programming front end.

    The problems produced by the scheduler are small packing LPs:
    maximize total allocated bandwidth subject to per-server and
    per-switch capacity constraints and per-task lower bounds (least
    required bandwidth). This module is the stable interface; the
    simplex itself lives in {!Simplex}. A problem is held as compressed
    sparse rows, and its connected blocks (rows joined by a shared
    variable) are found by a union-find while it is built. Every solve
    is exact and goes one way: solve each block on its own tableau,
    read straight from the problem's arrays. *)

type constr = {
  coeffs : (int * float) list;  (** sparse row: (variable index, coefficient) *)
  bound : float;  (** right-hand side of [row . x <= bound] *)
}

type problem = private {
  nvars : int;
  nrows : int;
  row_start : int array;
      (** row [i] holds entries [row_start.(i)] to [row_start.(i + 1) - 1] *)
  col : int array;  (** each entry's variable index *)
  coef : float array;  (** each entry's coefficient *)
  bound : float array;  (** right-hand side of row [i]: [row . x <= bound.(i)] *)
  objective : float array;  (** maximize [objective . x] over the first [nvars] entries *)
  lower : float array;  (** per-variable lower bounds (>= 0) *)
  root : int array;  (** the lowest row of row [i]'s connected block *)
  anchor : int array;  (** a row holding variable [j], or [-1] when none does *)
}
(** Arrays may be longer than the problem (see {!packing}); only the
    first [nvars], [nrows] and [row_start.(nrows)] entries are part of
    it. A problem is never mutated once built. *)

type solution = {
  values : float array;
  objective_value : float;
}

type error =
  | Infeasible
  | Unbounded

type state
(** Reusable solver state: a simplex tableau workspace, the grow-only
    buffers every build and solve works in (key counts, the key->row
    map, two sets of problem arrays, the block index, the shifted
    right-hand sides, the scatter vector), and the last solved problem
    with its optimal basis and solution. When consecutive solves repeat
    a problem the cached solution is returned directly; when the
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
  nvars:int -> objective:float array -> lower:float array -> constr list -> problem
(** [make ~nvars ~objective ~lower constrs] builds a problem in fresh
    arrays, with rows in list order and each row's entries in list
    order. Raises [Invalid_argument] on dimension mismatches,
    out-of-range variable indices, or negative lower bounds. *)

val packing :
  state -> nkeys:int -> keys:('a -> int array) -> capacity:(int -> float) ->
  lower:('a -> float) -> 'a list -> problem
(** [packing st ~nkeys ~keys ~capacity ~lower vars] builds, in [st]'s
    buffers, the packing LP over one variable [x_j] per element [v_j]
    of [vars]: maximize [sum x_j] subject to, for every key [k] some
    [keys v_j] holds, [sum of x_j over the j whose keys hold k <=
    capacity k], and [x_j >= lower v_j]. Every coefficient is 1. Rows
    are those keys in ascending order, and each row lists its
    variables in descending index. [keys] returns ids in [\[0, nkeys)]
    and is called twice per element, and must give the same ids both
    times; [capacity] is called once per row and [lower] once per
    element, in list order. The blocks are found while the rows are
    filled: a union-find joins the rows of each variable. The result lives in
    [st]'s buffers: it stays valid until the next [packing] call on
    [st]. Raises [Invalid_argument] on a key out of range. *)

val solve : ?state:state -> problem -> (solution, error) result
(** Solve the problem exactly. The returned [values] satisfy every
    constraint up to a small numerical tolerance and respect the lower
    bounds. Each connected block is solved on its own tableau; the
    result equals that of one simplex over the whole problem, because
    a pivot never crosses a block. Blocks are numbered by the first
    variable that reaches them, and each lists its variables and rows
    in ascending order. [Infeasible] wins over [Unbounded] when blocks
    disagree, as phase 1 of a single tableau would. [state] enables
    buffer reuse, the exact-repeat memo and warm starts across
    consecutive solves (see {!state}); without it the solve is cold. *)
