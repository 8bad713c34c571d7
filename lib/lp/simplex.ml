(* Two-phase primal simplex over a dense working tableau, with a
   sparse-aware build, a reusable solver workspace, and an optional
   warm start.

   Layout of the working tableau for m constraints and n structural
   variables: columns are [structural (n) | slack (m) | artificial (a)],
   one extra column for the right-hand side, and one extra row for the
   (phase-dependent) objective, kept in maximization form with reduced
   costs in the objective row. All right-hand sides are made
   non-negative before phase 1 by negating rows, which is what creates
   the need for artificial variables (a negated row has slack
   coefficient -1 and cannot serve as the initial basic variable).

   The scheduler's packing LPs are extremely sparse (each flow touches
   the handful of entities on its route), so constraint rows come in as
   (column, coefficient) lists and are scattered straight into the
   tableau — the caller never materializes an m x n matrix. The
   workspace keeps the tableau row arena and basis buffer alive across
   solves so consecutive recomputations of similar problems allocate
   nothing beyond the result vector. *)

let eps = 1e-9

type tableau = {
  t : float array array;  (* (m+1) x (ncols+1); last row = objective *)
  basis : int array;  (* basis.(i) = column basic in row i *)
  m : int;
  ncols : int;
}

let pivot tb ~row ~col =
  let a = tb.t in
  let p = a.(row).(col) in
  let width = tb.ncols + 1 in
  let r = a.(row) in
  for j = 0 to width - 1 do
    r.(j) <- r.(j) /. p
  done;
  for i = 0 to tb.m do
    if i <> row then begin
      let f = a.(i).(col) in
      if Float.abs f > 0. then begin
        let ri = a.(i) in
        for j = 0 to width - 1 do
          ri.(j) <- ri.(j) -. (f *. r.(j))
        done
      end
    end
  done;
  tb.basis.(row) <- col

(* Entering column: most positive reduced cost (we maximize, so the
   objective row stores c_j - z_j and we look for positive entries).
   After [stall_budget] consecutive degenerate pivots we switch to
   Bland's rule (lowest eligible index), which provably terminates. *)
let entering tb ~bland =
  let obj = tb.t.(tb.m) in
  if bland then begin
    let rec find j = if j >= tb.ncols then None else if obj.(j) > eps then Some j else find (j + 1) in
    find 0
  end
  else begin
    let best = ref (-1) and best_v = ref eps in
    for j = 0 to tb.ncols - 1 do
      if obj.(j) > !best_v then begin
        best := j;
        best_v := obj.(j)
      end
    done;
    if !best < 0 then None else Some !best
  end

let leaving tb ~col ~bland =
  let best = ref (-1) and best_ratio = ref infinity in
  for i = 0 to tb.m - 1 do
    let a = tb.t.(i).(col) in
    if a > eps then begin
      let ratio = tb.t.(i).(tb.ncols) /. a in
      let better =
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps
            && !best >= 0
            && (if bland then tb.basis.(i) < tb.basis.(!best)
                else tb.t.(i).(col) > tb.t.(!best).(col)))
      in
      if !best < 0 || better then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  if !best < 0 then None else Some !best

let run_phase tb =
  let max_iters = 200 * (tb.m + tb.ncols) + 1000 in
  let stall_budget = 4 * (tb.m + tb.ncols) in
  let rec loop iter stalls =
    if iter > max_iters then `Optimal (* pathological; tableau is still feasible *)
    else begin
      let bland = stalls > stall_budget in
      match entering tb ~bland with
      | None -> `Optimal
      | Some col ->
        (match leaving tb ~col ~bland with
         | None -> `Unbounded
         | Some row ->
           let degenerate = tb.t.(row).(tb.ncols) < eps in
           pivot tb ~row ~col;
           loop (iter + 1) (if degenerate then stalls + 1 else 0))
    end
  in
  loop 0 0

(* ------------------------------------------------------------------ *)
(* Workspace: a grow-only arena of tableau rows plus a basis buffer,
   sized by the largest problem solved through it so far. Rows may be
   physically wider than the current problem needs; every loop above is
   bounded by the logical [ncols], so the slack is harmless. *)

type workspace = {
  mutable buf : float array array;
  mutable basis_buf : int array;
}

let create_workspace () = { buf = [||]; basis_buf = [||] }

let round_up cur need =
  let rec go c = if c >= need then c else go (2 * c) in
  go (max 16 cur)

let acquire ws ~nrows ~width =
  let have_rows = Array.length ws.buf in
  let have_width = if have_rows = 0 then 0 else Array.length ws.buf.(0) in
  if have_width < width then begin
    let w = round_up have_width width in
    ws.buf <- Array.init (max nrows have_rows) (fun _ -> Array.make w 0.)
  end
  else if have_rows < nrows then
    ws.buf <-
      Array.append ws.buf
        (Array.init (nrows - have_rows) (fun _ -> Array.make have_width 0.));
  for i = 0 to nrows - 1 do
    Array.fill ws.buf.(i) 0 width 0.
  done;
  if Array.length ws.basis_buf < nrows then
    ws.basis_buf <- Array.make (round_up (Array.length ws.basis_buf) nrows) 0

let fill_row t i coeffs sign =
  List.iter (fun (j, a) -> t.(i).(j) <- t.(i).(j) +. (sign *. a)) coeffs

(* Phase 2 objective: the real objective expressed in reduced costs
   w.r.t. the current basis. Slack and artificial columns carry zero
   cost, so only rows whose basic variable is structural contribute. *)
let install_objective tb ~obj ~n =
  let t = tb.t in
  for j = 0 to tb.ncols do
    t.(tb.m).(j) <- 0.
  done;
  for j = 0 to n - 1 do
    t.(tb.m).(j) <- obj.(j)
  done;
  for i = 0 to tb.m - 1 do
    let b = tb.basis.(i) in
    if b < n then begin
      let c = t.(tb.m).(b) in
      if Float.abs c > 0. then
        for j = 0 to tb.ncols do
          t.(tb.m).(j) <- t.(tb.m).(j) -. (c *. t.(i).(j))
        done
    end
  done

let extract tb ~n =
  let x = Array.make n 0. in
  for i = 0 to tb.m - 1 do
    if tb.basis.(i) < n then x.(tb.basis.(i)) <- tb.t.(i).(tb.ncols)
  done;
  (* Clamp the tiny negatives produced by floating-point pivoting. *)
  Array.iteri (fun i v -> if v < 0. && v > -1e-7 then x.(i) <- 0.) x;
  x

(* A basis is reusable as a warm hint only if it is free of artificial
   columns (an artificial index would alias a slack of a later, larger
   problem). *)
let basis_hint tb ~n =
  let b = Array.sub tb.basis 0 tb.m in
  if Array.exists (fun c -> c >= n + tb.m) b then None else Some b

(* Warm start: rebuild the tableau from the slack basis, replay the
   previous optimal basis with explicit pivots, and — if the resulting
   basic solution is primal feasible — skip phase 1 entirely. Returns
   [None] when the basis cannot be installed (zero pivot element, out of
   range column, or an infeasible right-hand side), in which case the
   caller falls back to a cold two-phase solve. *)
let warm_solve ws ~obj ~rows ~rhs ~warm =
  let n = Array.length obj and m = Array.length rows in
  let ncols = n + m in
  if Array.length warm <> m || Array.exists (fun c -> c < 0 || c >= ncols) warm then None
  else begin
    acquire ws ~nrows:(m + 1) ~width:(ncols + 1);
    let t = ws.buf and basis = ws.basis_buf in
    for i = 0 to m - 1 do
      fill_row t i rows.(i) 1.;
      t.(i).(n + i) <- 1.;
      t.(i).(ncols) <- rhs.(i);
      basis.(i) <- n + i
    done;
    let tb = { t; basis; m; ncols } in
    let ok = ref true in
    (try
       for i = 0 to m - 1 do
         let c = warm.(i) in
         if c <> n + i then begin
           if Float.abs t.(i).(c) > 1e-7 then pivot tb ~row:i ~col:c
           else begin
             ok := false;
             raise Exit
           end
         end
       done;
       for i = 0 to m - 1 do
         let b = t.(i).(ncols) in
         if b < -1e-7 then begin
           ok := false;
           raise Exit
         end
         else if b < 0. then t.(i).(ncols) <- 0.
       done
     with Exit -> ());
    if not !ok then None
    else begin
      install_objective tb ~obj ~n;
      match run_phase tb with
      | `Unbounded -> Some (Error `Unbounded)
      | `Optimal -> Some (Ok (extract tb ~n, basis_hint tb ~n))
    end
  end

let cold_solve ws ~obj ~rows ~rhs =
  let n = Array.length obj and m = Array.length rows in
  (* Normalize to non-negative rhs, noting which rows need artificials. *)
  let need_art = Array.map (fun b -> b < 0.) rhs in
  let nart = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 need_art in
  let ncols = n + m + nart in
  acquire ws ~nrows:(m + 1) ~width:(ncols + 1);
  let t = ws.buf and basis = ws.basis_buf in
  let art_idx = ref (n + m) in
  for i = 0 to m - 1 do
    let sign = if need_art.(i) then -1. else 1. in
    fill_row t i rows.(i) sign;
    t.(i).(n + i) <- sign;
    t.(i).(ncols) <- sign *. rhs.(i);
    if need_art.(i) then begin
      t.(i).(!art_idx) <- 1.;
      basis.(i) <- !art_idx;
      incr art_idx
    end
    else basis.(i) <- n + i
  done;
  let tb = { t; basis; m; ncols } in
  let infeasible = ref false in
  if nart > 0 then begin
    (* Phase 1: maximize -(sum of artificials). Objective row must hold
       reduced costs w.r.t. the current (artificial) basis: start with
       -1 in each artificial column, then add each artificial row to
       zero out its basic column. *)
    for j = n + m to ncols - 1 do
      t.(m).(j) <- -1.
    done;
    for i = 0 to m - 1 do
      if basis.(i) >= n + m then
        for j = 0 to ncols do
          t.(m).(j) <- t.(m).(j) +. t.(i).(j)
        done
    done;
    (match run_phase tb with
     | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
     | `Optimal -> ());
    (* The objective row's rhs holds -(objective value); phase 1
       maximizes -(sum of artificials), so a positive residual means
       some artificial is stuck above zero: infeasible. *)
    if t.(m).(ncols) > 1e-7 then infeasible := true
    else begin
      (* Pivot any artificial still in the basis out (degenerate rows). *)
      for i = 0 to m - 1 do
        if basis.(i) >= n + m then begin
          let found = ref false in
          let j = ref 0 in
          while (not !found) && !j < n + m do
            if Float.abs t.(i).(!j) > eps then begin
              pivot tb ~row:i ~col:!j;
              found := true
            end;
            incr j
          done
          (* If no pivot exists the row is all-zero and harmless. *)
        end
      done
    end
  end;
  if !infeasible then Error `Infeasible
  else begin
    install_objective tb ~obj ~n;
    for j = n + m to ncols - 1 do
      t.(m).(j) <- -.infinity (* never re-enter an artificial column *)
    done;
    match run_phase tb with
    | `Unbounded -> Error `Unbounded
    | `Optimal -> Ok (extract tb ~n, basis_hint tb ~n)
  end

let maximize_sparse ?ws ?warm ~obj ~rows ~rhs () =
  let n = Array.length obj and m = Array.length rows in
  if Array.length rhs <> m then invalid_arg "Simplex.maximize_sparse: rhs length";
  Array.iter
    (List.iter (fun (j, _) ->
         if j < 0 || j >= n then invalid_arg "Simplex.maximize_sparse: column index"))
    rows;
  let ws = match ws with Some w -> w | None -> create_workspace () in
  match warm with
  | Some w -> (
    match warm_solve ws ~obj ~rows ~rhs ~warm:w with
    | Some result -> result
    | None -> cold_solve ws ~obj ~rows ~rhs)
  | None -> cold_solve ws ~obj ~rows ~rhs
