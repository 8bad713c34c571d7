(* Checks on {!S3_lp.Lp} results that only the tests use: a
   feasibility oracle, the objective at a point, the rows of a problem
   as lists, and an error printer. *)

module Lp = S3_lp.Lp

(* The rows of [p] as {!Lp.make} takes them, entries in stored order. *)
let constraints (p : Lp.problem) =
  List.init p.Lp.nrows (fun i ->
      { Lp.coeffs =
          List.init
            (p.Lp.row_start.(i + 1) - p.Lp.row_start.(i))
            (fun k -> (p.Lp.col.(p.Lp.row_start.(i) + k), p.Lp.coef.(p.Lp.row_start.(i) + k)));
        bound = p.Lp.bound.(i)
      })

(* [feasible p x]: [x] meets every constraint and lower bound of [p]
   within [tol]. *)
let feasible ?(tol = 1e-6) (p : Lp.problem) x =
  Array.length x = p.Lp.nvars
  && (let ok = ref true in
      for j = 0 to p.Lp.nvars - 1 do
        if x.(j) < p.Lp.lower.(j) -. tol then ok := false
      done;
      List.iter
        (fun { Lp.coeffs; bound } ->
          let lhs = List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. coeffs in
          if lhs > bound +. tol then ok := false)
        (constraints p);
      !ok)

(* The objective at [x], summed in variable order: the same float
   operations as the solver's own evaluation. *)
let objective_of (p : Lp.problem) x =
  let acc = ref 0. in
  for j = 0 to p.Lp.nvars - 1 do
    acc := !acc +. (p.Lp.objective.(j) *. x.(j))
  done;
  !acc

let pp_error ppf = function
  | Lp.Infeasible -> Format.pp_print_string ppf "infeasible"
  | Lp.Unbounded -> Format.pp_print_string ppf "unbounded"
