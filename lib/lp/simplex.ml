(* Two-phase primal simplex over a dense working tableau, built from
   compressed sparse rows, with a reusable solver workspace and an
   optional warm start.

   Layout of the working tableau for m constraints and n structural
   variables: columns are [structural (n) | slack (m) | artificial (a)],
   one extra column for the right-hand side, and one extra row for the
   (phase-dependent) objective, kept in maximization form with reduced
   costs in the objective row. All right-hand sides are made
   non-negative before phase 1 by negating rows, which is what creates
   the need for artificial variables (a negated row has slack
   coefficient -1 and cannot serve as the initial basic variable).

   The scheduler's packing LPs are extremely sparse (each flow touches
   the handful of entities on its route), so a block's rows are read
   from the caller's compressed sparse rows through its global->local
   column map and scattered straight into the tableau — nobody
   materializes an m x n matrix or a per-block copy of the rows. The
   workspace keeps the tableau row arena and basis buffer alive across
   solves, and results go to caller buffers, so consecutive
   recomputations of similar problems allocate nothing. *)

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

type block = {
  start : int array;
  col : int array;
  coef : float array;
  rhs : float array;
  obj : float array;
  vars : int array;
  var0 : int;
  n : int;
  rows : int array;
  row0 : int;
  m : int;
  local : int array;
}

type outcome =
  | Optimal of { reusable : bool }
  | Infeasible
  | Unbounded
  | Bailed

let rhs_of (b : block) i = b.rhs.(b.rows.(b.row0 + i))

(* Local row [i] of the block into tableau row [i], entries in stored
   order, so a repeated column accumulates as it always has. *)
let fill_row t i (b : block) sign =
  let r = b.rows.(b.row0 + i) in
  let ti = t.(i) in
  for k = b.start.(r) to b.start.(r + 1) - 1 do
    let c = b.local.(b.col.(k)) in
    ti.(c) <- ti.(c) +. (sign *. b.coef.(k))
  done

(* Phase 2 objective: the real objective expressed in reduced costs
   w.r.t. the current basis. Slack and artificial columns carry zero
   cost, so only rows whose basic variable is structural contribute. *)
let install_objective (tb : tableau) (b : block) =
  let t = tb.t and n = b.n in
  for j = 0 to tb.ncols do
    t.(tb.m).(j) <- 0.
  done;
  for j = 0 to n - 1 do
    t.(tb.m).(j) <- b.obj.(b.vars.(b.var0 + j))
  done;
  for i = 0 to tb.m - 1 do
    let bc = tb.basis.(i) in
    if bc < n then begin
      let c = t.(tb.m).(bc) in
      if Float.abs c > 0. then
        for j = 0 to tb.ncols do
          t.(tb.m).(j) <- t.(tb.m).(j) -. (c *. t.(i).(j))
        done
    end
  done

(* The optimal vertex into [x] and the final basis into [basis]. The
   basis is reusable as a warm hint only if it is free of artificial
   columns (an artificial index would alias a slack of a later, larger
   problem). *)
let extract (tb : tableau) ~n ~x ~basis =
  Array.fill x 0 n 0.;
  for i = 0 to tb.m - 1 do
    if tb.basis.(i) < n then x.(tb.basis.(i)) <- tb.t.(i).(tb.ncols)
  done;
  (* Clamp the tiny negatives produced by floating-point pivoting. *)
  for j = 0 to n - 1 do
    let v = x.(j) in
    if v < 0. && v > -1e-7 then x.(j) <- 0.
  done;
  Array.blit tb.basis 0 basis 0 tb.m;
  let reusable = ref true in
  for i = 0 to tb.m - 1 do
    if basis.(i) >= n + tb.m then reusable := false
  done;
  Optimal { reusable = !reusable }

(* Warm start: rebuild the tableau from the slack basis, replay the
   previous optimal basis with explicit pivots, and — if the resulting
   basic solution is primal feasible — skip phase 1 entirely. Bails
   when the basis cannot be installed (zero pivot element, out of range
   column, or an infeasible right-hand side). *)
let warm ws (b : block) ~hint ~x ~basis:out =
  let n = b.n and m = b.m in
  let ncols = n + m in
  let in_range = ref true in
  for i = 0 to m - 1 do
    if hint.(i) < 0 || hint.(i) >= ncols then in_range := false
  done;
  if not !in_range then Bailed
  else begin
    acquire ws ~nrows:(m + 1) ~width:(ncols + 1);
    let t = ws.buf and basis = ws.basis_buf in
    for i = 0 to m - 1 do
      fill_row t i b 1.;
      t.(i).(n + i) <- 1.;
      t.(i).(ncols) <- rhs_of b i;
      basis.(i) <- n + i
    done;
    let tb = { t; basis; m; ncols } in
    let ok = ref true in
    (try
       for i = 0 to m - 1 do
         let c = hint.(i) in
         if c <> n + i then begin
           if Float.abs t.(i).(c) > 1e-7 then pivot tb ~row:i ~col:c
           else begin
             ok := false;
             raise Exit
           end
         end
       done;
       for i = 0 to m - 1 do
         let r = t.(i).(ncols) in
         if r < -1e-7 then begin
           ok := false;
           raise Exit
         end
         else if r < 0. then t.(i).(ncols) <- 0.
       done
     with Exit -> ());
    if not !ok then Bailed
    else begin
      install_objective tb b;
      match run_phase tb with
      | `Unbounded -> Unbounded
      | `Optimal -> extract tb ~n ~x ~basis:out
    end
  end

let cold ws (b : block) ~x ~basis:out =
  let n = b.n and m = b.m in
  (* Normalize to non-negative rhs; a negated row needs an artificial. *)
  let nart = ref 0 in
  for i = 0 to m - 1 do
    if rhs_of b i < 0. then incr nart
  done;
  let ncols = n + m + !nart in
  acquire ws ~nrows:(m + 1) ~width:(ncols + 1);
  let t = ws.buf and basis = ws.basis_buf in
  let art_idx = ref (n + m) in
  for i = 0 to m - 1 do
    let rhs = rhs_of b i in
    let need_art = rhs < 0. in
    let sign = if need_art then -1. else 1. in
    fill_row t i b sign;
    t.(i).(n + i) <- sign;
    t.(i).(ncols) <- sign *. rhs;
    if need_art then begin
      t.(i).(!art_idx) <- 1.;
      basis.(i) <- !art_idx;
      incr art_idx
    end
    else basis.(i) <- n + i
  done;
  let tb = { t; basis; m; ncols } in
  let infeasible = ref false in
  if !nart > 0 then begin
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
  if !infeasible then Infeasible
  else begin
    install_objective tb b;
    for j = n + m to ncols - 1 do
      t.(m).(j) <- -.infinity (* never re-enter an artificial column *)
    done;
    match run_phase tb with
    | `Unbounded -> Unbounded
    | `Optimal -> extract tb ~n ~x ~basis:out
  end
