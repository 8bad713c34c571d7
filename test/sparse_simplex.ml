(* The list entry point to the simplex, for tests and oracles that
   state an LP as (column, coefficient) rows: the rows go into
   compressed sparse rows, and {!S3_lp.Simplex} solves them as one
   block whose local and global columns coincide. *)

module Simplex = S3_lp.Simplex

let block ~obj ~rows ~rhs =
  let n = Array.length obj and m = Array.length rows in
  let nnz = Array.fold_left (fun acc r -> acc + List.length r) 0 rows in
  let start = Array.make (m + 1) nnz and col = Array.make nnz 0 and coef = Array.make nnz 0. in
  let pos = ref 0 in
  Array.iteri
    (fun i r ->
      start.(i) <- !pos;
      List.iter
        (fun (j, a) ->
          col.(!pos) <- j;
          coef.(!pos) <- a;
          incr pos)
        r)
    rows;
  let ids k = Array.init k Fun.id in
  { Simplex.start; col; coef; rhs; obj; vars = ids n; var0 = 0; n; rows = ids m; row0 = 0; m;
    local = ids n }

(* Run one solve into fresh result arrays; [None] when it bails. *)
let run solve (b : Simplex.block) =
  let x = Array.make b.Simplex.n 0. and basis = Array.make b.Simplex.m 0 in
  match solve b ~x ~basis with
  | Simplex.Optimal { reusable } -> Some (Ok (x, if reusable then Some basis else None))
  | Simplex.Infeasible -> Some (Error `Infeasible)
  | Simplex.Unbounded -> Some (Error `Unbounded)
  | Simplex.Bailed -> None

(* Replay [warm] and re-optimize; [None] when the basis cannot be
   installed, with no cold fallback. *)
let warm_solve ws ~obj ~rows ~rhs ~warm =
  if Array.length warm <> Array.length rows then None
  else run (Simplex.warm ws ~hint:warm) (block ~obj ~rows ~rhs)

(* Solve cold, or from [warm] when it replays: a stale or wrong hint
   costs time, never correctness. The basis comes back [None] when it
   retains an artificial column. *)
let maximize_sparse ?ws ?warm ~obj ~rows ~rhs () =
  let n = Array.length obj and m = Array.length rows in
  if Array.length rhs <> m then invalid_arg "Sparse_simplex.maximize_sparse: rhs length";
  Array.iter
    (List.iter (fun (j, _) ->
         if j < 0 || j >= n then invalid_arg "Sparse_simplex.maximize_sparse: column index"))
    rows;
  let ws = match ws with Some w -> w | None -> Simplex.create_workspace () in
  let cold () =
    match run (Simplex.cold ws) (block ~obj ~rows ~rhs) with
    | Some r -> r
    | None -> assert false (* a cold solve never bails *)
  in
  match warm with
  | None -> cold ()
  | Some warm -> (
    match warm_solve ws ~obj ~rows ~rhs ~warm with
    | Some r -> r
    | None -> cold ())
