type constr = {
  coeffs : (int * float) list;
  bound : float;
}

type problem = {
  nvars : int;
  objective : float array;
  constraints : constr list;
  lower : float array;
}

type solution = {
  values : float array;
  objective_value : float;
}

type error =
  | Infeasible
  | Unbounded

(* Reusable solver state: the simplex workspace plus a snapshot of the
   last successfully solved problem. The snapshot enables two reuse
   levels:
   - identical problem (same structure, objective, bounds): the cached
     solution is returned without touching the solver;
   - same or grown structure (the old constraints are a coeff-wise
     prefix of the new ones and variables were only appended): the old
     optimal basis warm-starts phase 2, skipping phase 1.
   Both checks are O(nonzeros), orders of magnitude below a solve. A
   basis that cannot be replayed falls back to a cold solve. *)
type snapshot = {
  p_nvars : int;
  p_cons : constr array;
  p_obj : float array;
  p_lower : float array;
  p_basis : int array option;
  p_values : float array;
  p_objective_value : float;
}

type state = {
  ws : Simplex.workspace;
  mutable prev : snapshot option;
}

let create_state () = { ws = Simplex.create_workspace (); prev = None }

let make ~nvars ~objective ?lower constraints =
  if nvars < 0 then invalid_arg "Lp.make: negative nvars";
  if Array.length objective <> nvars then invalid_arg "Lp.make: objective length";
  let lower =
    match lower with
    | None -> Array.make nvars 0.
    | Some l ->
      if Array.length l <> nvars then invalid_arg "Lp.make: lower length";
      Array.iter (fun v -> if v < 0. then invalid_arg "Lp.make: negative lower bound") l;
      l
  in
  List.iter
    (fun { coeffs; _ } ->
      List.iter
        (fun (j, _) ->
          if j < 0 || j >= nvars then invalid_arg "Lp.make: variable index out of range")
        coeffs)
    constraints;
  { nvars; objective; constraints; lower }

let objective_of p x =
  let acc = ref 0. in
  for j = 0 to p.nvars - 1 do
    acc := !acc +. (p.objective.(j) *. x.(j))
  done;
  !acc

let finish p y =
  let values = Array.init p.nvars (fun j -> p.lower.(j) +. y.(j)) in
  { values; objective_value = objective_of p values }

(* The sparse rhs after the lower-bound substitution x = lower + y:
   each bound becomes b - row . lower. *)
let shifted_rhs p cons =
  Array.map
    (fun { coeffs; bound } ->
      let shift =
        List.fold_left (fun acc (j, a) -> acc +. (a *. p.lower.(j))) 0. coeffs
      in
      bound -. shift)
    cons

(* Typed equality for the memo. [Float.equal] is a total equality
   (NaN = NaN), so a pathological NaN coefficient yields a stable
   memo hit instead of an unconditional miss; for the finite values
   the solver produces it coincides with (=). *)
let float_array_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if !ok && not (Float.equal x b.(i)) then ok := false) a;
      !ok)

let same_coeffs a b =
  List.equal (fun (ja, xa) (jb, xb) -> ja = jb && Float.equal xa xb) a.coeffs b.coeffs

(* Memo hit: the whole problem is unchanged. *)
let snapshot_matches pv p cons =
  pv.p_nvars = p.nvars
  && float_array_equal pv.p_obj p.objective
  && float_array_equal pv.p_lower p.lower
  && Array.length pv.p_cons = Array.length cons
  && (let ok = ref true in
      Array.iteri
        (fun i c ->
          if !ok && not (same_coeffs pv.p_cons.(i) c && Float.equal pv.p_cons.(i).bound c.bound)
          then ok := false)
        cons;
      !ok)

(* Warm-basis hit: the old constraint rows are a coefficient-wise
   prefix of the new ones and variables were only appended, so the old
   basis columns keep their meaning once slack indices are remapped to
   the new variable count. Bounds, lower bounds and objective are free
   to change — the installed basis is feasibility-checked by the
   solver. *)
let warm_hint st p cons =
  match st.prev with
  | Some { p_nvars; p_cons; p_basis = Some basis; _ }
    when p.nvars >= p_nvars && Array.length cons >= Array.length p_cons ->
    let pm = Array.length p_cons in
    let ok = ref true in
    for i = 0 to pm - 1 do
      if !ok && not (same_coeffs p_cons.(i) cons.(i)) then ok := false
    done;
    if not !ok then None
    else begin
      let n = p.nvars in
      Some
        (Array.init (Array.length cons) (fun i ->
             if i >= pm then n + i
             else begin
               let c = basis.(i) in
               if c < p_nvars then c else n + (c - p_nvars)
             end))
    end
  | _ -> None

(* ---- block decomposition ----

   The packing LP decomposes along the connected components of its
   row/column incidence graph: a pivot in one component never touches
   another (all cross-component tableau coefficients are exactly 0.0
   and the pivot row-update skips zero multipliers), and Dantzig's
   rule merely interleaves the per-block pivot sequences, so solving
   the blocks separately returns the values one tableau over the whole
   problem would, on tableaux a fraction of its size. The warm basis
   of {!warm_hint} is replayed block by block; if any block's replay
   bails, every block is re-solved cold — the all-or-nothing fallback
   of {!Simplex.maximize_sparse} on the whole tableau. *)

(* Union-find with path compression; smaller root wins so block
   numbering is independent of union order. *)
let uf_find uf x =
  let rec root x = if uf.(x) = x then x else root uf.(x) in
  let r = root x in
  let rec compress x =
    if uf.(x) <> r then begin
      let nx = uf.(x) in
      uf.(x) <- r;
      compress nx
    end
  in
  compress x;
  r

let uf_union uf a b =
  let ra = uf_find uf a and rb = uf_find uf b in
  if ra < rb then uf.(rb) <- ra else if rb < ra then uf.(ra) <- rb

type block = {
  vars : int array;  (* global variable indices, ascending *)
  rows : int array;  (* global row indices, ascending *)
  sub_rows : (int * float) list array;  (* coefficients on block-local columns *)
  sub_rhs : float array;
  sub_obj : float array;
}

exception Bail_to_cold

let solve_blocks st p cons =
  let n = p.nvars and m = Array.length cons in
  (* A variable in no constraint maximizes unboundedly exactly when the
     entering rule (reduced cost > 1e-9) would select it — but phase 1
     runs first, so infeasibility of the constrained part takes
     precedence over that unboundedness. *)
  let in_row = Array.make n false in
  Array.iter (fun c -> List.iter (fun (j, _) -> in_row.(j) <- true) c.coeffs) cons;
  let free_unbounded = ref false in
  for j = 0 to n - 1 do
    if (not in_row.(j)) && p.objective.(j) > 1e-9 then free_unbounded := true
  done;
  (* Connected components over variables [0, n) and rows [n, n + m),
     numbered in order of first appearance. *)
  let uf = Array.init (n + m) Fun.id in
  Array.iteri (fun i c -> List.iter (fun (j, _) -> uf_union uf j (n + i)) c.coeffs) cons;
  let number = Array.make (n + m) (-1) and nblocks = ref 0 in
  let block_of x =
    let r = uf_find uf x in
    if number.(r) < 0 then begin
      number.(r) <- !nblocks;
      incr nblocks
    end;
    number.(r)
  in
  let var_block = Array.init n (fun j -> if in_row.(j) then block_of j else -1) in
  let row_block = Array.init m (fun i -> block_of (n + i)) in
  let nb = !nblocks in
  let bvars = Array.make nb [] and brows = Array.make nb [] in
  for j = n - 1 downto 0 do
    if var_block.(j) >= 0 then bvars.(var_block.(j)) <- j :: bvars.(var_block.(j))
  done;
  for i = m - 1 downto 0 do
    brows.(row_block.(i)) <- i :: brows.(row_block.(i))
  done;
  (* [local.(j)] is variable j's column in its block, [local.(n + i)]
     row i's position in its block. *)
  let local = Array.make (n + m) 0 in
  let shifted = shifted_rhs p cons in
  let blocks =
    Array.init nb (fun b ->
        let vars = Array.of_list bvars.(b) and rows = Array.of_list brows.(b) in
        Array.iteri (fun pos j -> local.(j) <- pos) vars;
        Array.iteri (fun pos i -> local.(n + i) <- pos) rows;
        { vars;
          rows;
          sub_rows =
            Array.map (fun i -> List.map (fun (j, a) -> (local.(j), a)) cons.(i).coeffs) rows;
          sub_rhs = Array.map (fun i -> shifted.(i)) rows;
          sub_obj = Array.map (fun j -> p.objective.(j)) vars
        })
  in
  (* The global warm basis in block b's local columns. A basic column
     outside the block can only come from a stale hint, one the whole
     tableau's replay would reject too. *)
  let local_warm g b blk =
    Array.map
      (fun i ->
        let c = g.(i) in
        if c < n then if var_block.(c) = b then local.(c) else raise Bail_to_cold
        else if row_block.(c - n) = b then Array.length blk.vars + local.(c)
        else raise Bail_to_cold)
      blk.rows
  in
  let solve_block warm blk =
    match warm with
    | None ->
      Simplex.maximize_sparse ~ws:st.ws ~obj:blk.sub_obj ~rows:blk.sub_rows ~rhs:blk.sub_rhs ()
    | Some warm -> (
      match
        Simplex.warm_solve st.ws ~obj:blk.sub_obj ~rows:blk.sub_rows ~rhs:blk.sub_rhs ~warm
      with
      | Some r -> r
      | None -> raise Bail_to_cold)
  in
  let cold () = Array.map (solve_block None) blocks in
  let results =
    match warm_hint st p cons with
    | None -> cold ()
    | Some g -> (
      try Array.mapi (fun b blk -> solve_block (Some (local_warm g b blk)) blk) blocks
      with Bail_to_cold -> cold ())
  in
  (* Scatter the block solutions and stitch the global basis. *)
  let err = ref (if !free_unbounded then Some Unbounded else None) in
  let y = Array.make n 0. and basis = Array.make m 0 and basis_ok = ref true in
  Array.iteri
    (fun b r ->
      let blk = blocks.(b) in
      match r with
      | Error `Infeasible -> err := Some Infeasible
      | Error `Unbounded -> if Option.is_none !err then err := Some Unbounded
      | Ok (by, bbasis) -> (
        Array.iteri (fun pos j -> y.(j) <- by.(pos)) blk.vars;
        match bbasis with
        | None -> basis_ok := false
        | Some bb ->
          let nv = Array.length blk.vars in
          Array.iteri
            (fun li i ->
              let c = bb.(li) in
              basis.(i) <- (if c < nv then blk.vars.(c) else n + blk.rows.(c - nv)))
            blk.rows))
    results;
  match !err with
  | Some e ->
    st.prev <- None;
    Error e
  | None ->
    let s = finish p y in
    st.prev <-
      Some
        { p_nvars = n;
          p_cons = cons;
          p_obj = Array.copy p.objective;
          p_lower = Array.copy p.lower;
          p_basis = (if !basis_ok then Some basis else None);
          p_values = Array.copy s.values;
          p_objective_value = s.objective_value
        };
    Ok s

let solve ?state p =
  let st = match state with Some st -> st | None -> create_state () in
  let cons = Array.of_list p.constraints in
  match st.prev with
  | Some pv when snapshot_matches pv p cons ->
    Ok { values = Array.copy pv.p_values; objective_value = pv.p_objective_value }
  | _ -> solve_blocks st p cons
