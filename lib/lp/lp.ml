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

let pp_error ppf = function
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"

type backend =
  | Exact
  | Approx of float

(* Reusable solver state: the simplex workspace plus a snapshot of the
   last successfully solved problem. The snapshot enables two reuse
   levels on the exact path:
   - identical problem (same structure, objective, bounds): the cached
     solution is returned without touching the solver;
   - same or grown structure (the old constraints are a coeff-wise
     prefix of the new ones and variables were only appended): the old
     optimal basis warm-starts phase 2, skipping phase 1.
   Both checks are O(nonzeros), orders of magnitude below a solve, and
   any mismatch falls back to a cold solve, so state can never change a
   result — only how fast it is computed. *)
type snapshot = {
  p_nvars : int;
  p_cons : constr array;
  p_obj : float array;
  p_lower : float array;
  p_basis : int array option;
  p_values : float array;
  p_objective_value : float;
}

(* ---- keyed solves (block decomposition) ----

   When the caller names its variables and rows with stable external
   keys (flow ids, entity ids), the packing LP decomposes along the
   connected components of the row/column incidence graph: a pivot in
   one component never touches another (all cross-component tableau
   coefficients are exactly 0.0 and the pivot row-update skips zero
   multipliers), and Dantzig's rule merely interleaves the per-block
   pivot sequences, so solving the blocks separately is bit-identical
   to the global solve. Per-block results are cached under the block's
   smallest row key: a block whose rows, bounds, objective and lower
   bounds are unchanged — and that would be solved by the same method —
   reuses its previous solution verbatim, which is sound because the
   solver is deterministic in its inputs. The global warm start of the
   unkeyed path is replicated exactly: replayed per block, and if any
   block's replay bails every block is re-solved cold, mirroring the
   all-or-nothing fallback of {!Simplex.maximize_sparse}. *)

type identity = {
  var_keys : int array;
  row_keys : int array;
}

let identity ~var_keys ~row_keys = { var_keys; row_keys }

type block_entry = {
  e_row_keys : int array;
  e_rows : (int * float) list array;  (* coefficients keyed by var key *)
  e_bounds : float array;
  e_var_keys : int array;
  e_obj : float array;
  e_lower : float array;
  e_warm : int array option;  (* warm basis this result was solved from *)
  e_values : float array;  (* optimal y (above the lower bounds) *)
  e_basis : int array option;  (* resulting basis, block-local columns *)
  mutable e_stamp : int;
}

(* What the next keyed solve needs to reproduce the unkeyed path's
   warm-start decision: the previous rows (positionally, in global
   variable indices) and the previous stitched basis. *)
type keyed_prev = {
  pk_nvars : int;
  pk_rows : (int * float) list array;
  pk_basis : int array option;
}

type state = {
  ws : Simplex.workspace;
  pws : Packing.workspace;  (* CSR/heap arena for the Approx backend *)
  mutable prev : snapshot option;
  blocks : (int, block_entry) Hashtbl.t;  (* keyed path: per-block cache *)
  mutable keyed_prev : keyed_prev option;
  mutable solve_stamp : int;
}

let create_state () =
  { ws = Simplex.create_workspace ();
    pws = Packing.create_workspace ();
    prev = None;
    blocks = Hashtbl.create 64;
    keyed_prev = None;
    solve_stamp = 0
  }

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

let feasible ?(tol = 1e-6) p x =
  Array.length x = p.nvars
  && (let ok = ref true in
      for j = 0 to p.nvars - 1 do
        if x.(j) < p.lower.(j) -. tol then ok := false
      done;
      List.iter
        (fun { coeffs; bound } ->
          let lhs = List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0. coeffs in
          if lhs > bound +. tol then ok := false)
        p.constraints;
      !ok)

(* Canonical sparse row for the packing backend: coefficients sorted by
   column, duplicates summed in their original list order (a stable
   sort keeps equal keys in sequence), matching the sums a dense
   scatter of the same list would produce slot by slot. *)
let canonical_row coeffs =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) coeffs in
  let rec merge = function
    | [] -> []
    | [ entry ] -> [ entry ]
    | (j1, a1) :: (j2, a2) :: rest when j1 = j2 -> merge ((j1, a1 +. a2) :: rest)
    | entry :: rest -> entry :: merge rest
  in
  merge sorted

let finish p y =
  let values = Array.init p.nvars (fun j -> p.lower.(j) +. y.(j)) in
  { values; objective_value = objective_of p values }

(* The sparse rhs after the lower-bound substitution x = lower + y:
   each bound becomes b - row . lower (same accumulation order as
   [densify], so the exact path is numerically unchanged). *)
let shifted_rhs p cons =
  Array.map
    (fun { coeffs; bound } ->
      let shift =
        List.fold_left (fun acc (j, a) -> acc +. (a *. p.lower.(j))) 0. coeffs
      in
      bound -. shift)
    cons

(* Typed equality for cache keys. [Float.equal] is a total equality
   (NaN = NaN), so a pathological NaN coefficient yields a stable
   cache hit instead of an unconditional miss; for the finite values
   the solver produces it coincides with (=). *)
let float_array_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if !ok && not (Float.equal x b.(i)) then ok := false) a;
      !ok)

let coeffs_equal a b =
  List.equal (fun (ja, xa) (jb, xb) -> ja = jb && Float.equal xa xb) a b

let keyed_rows_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i r -> if !ok && not (coeffs_equal r b.(i)) then ok := false) a;
      !ok)

let same_coeffs a b = coeffs_equal a.coeffs b.coeffs

(* Cached-solution hit: the whole problem is unchanged. *)
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

(* Everything about one block needed to solve or cache it. *)
type block_prep = {
  r_vars : int array;  (* global variable indices, ascending *)
  r_rows : int array;  (* global row indices, ascending *)
  r_sub_rows : (int * float) list array;
  r_keyed_rows : (int * float) list array;
  r_sub_rhs : float array;
  r_bounds : float array;
  r_sub_obj : float array;
  r_sub_lower : float array;
  r_var_keys : int array;
  r_row_keys : int array;
  r_store_key : int;
}

exception Bail_to_cold

let exact_keyed st (id : identity) p cons =
  let n = p.nvars and m = Array.length cons in
  if Array.length id.var_keys <> n then invalid_arg "Lp.solve: identity var_keys length";
  if Array.length id.row_keys <> m then invalid_arg "Lp.solve: identity row_keys length";
  (* A variable in no constraint maximizes unboundedly exactly when the
     cold solver's entering rule (reduced cost > 1e-9) would select it —
     but the cold solver runs phase 1 first, so infeasibility of the
     constrained part takes precedence over that unboundedness. The flag
     is folded into the error scan below, never returned early. *)
  let in_row = Array.make n false in
  Array.iter (fun c -> List.iter (fun (j, _) -> in_row.(j) <- true) c.coeffs) cons;
  let free_unbounded = ref false in
  for j = 0 to n - 1 do
    if (not in_row.(j)) && p.objective.(j) > 1e-9 then free_unbounded := true
  done;
  begin
    st.solve_stamp <- st.solve_stamp + 1;
    (* Connected components over variables [0, n) and rows [n, n + m). *)
    let uf = Array.init (n + m) Fun.id in
    Array.iteri (fun i c -> List.iter (fun (j, _) -> uf_union uf j (n + i)) c.coeffs) cons;
    let bid = Hashtbl.create 32 in
    let nblocks = ref 0 in
    let block_of x =
      let r = uf_find uf x in
      match Hashtbl.find_opt bid r with
      | Some b -> b
      | None ->
        let b = !nblocks in
        incr nblocks;
        Hashtbl.replace bid r b;
        b
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
    let shifted = shifted_rhs p cons in
    let prep b =
      let vars = Array.of_list bvars.(b) and rows = Array.of_list brows.(b) in
      let vpos = Hashtbl.create (2 * Array.length vars) in
      Array.iteri (fun pos j -> Hashtbl.replace vpos j pos) vars;
      let sub_rows =
        Array.map
          (* lint: allow partial-stdlib — union-find put every row in the
             component of all its variables, so each row variable is in
             this block's vpos by construction *)
          (fun i -> List.map (fun (j, a) -> (Hashtbl.find vpos j, a)) cons.(i).coeffs)
          rows
      in
      let keyed_rows =
        Array.map
          (fun i -> List.map (fun (j, a) -> (id.var_keys.(j), a)) cons.(i).coeffs)
          rows
      in
      let row_keys = Array.map (fun i -> id.row_keys.(i)) rows in
      { r_vars = vars;
        r_rows = rows;
        r_sub_rows = sub_rows;
        r_keyed_rows = keyed_rows;
        r_sub_rhs = Array.map (fun i -> shifted.(i)) rows;
        r_bounds = Array.map (fun i -> cons.(i).bound) rows;
        r_sub_obj = Array.map (fun j -> p.objective.(j)) vars;
        r_sub_lower = Array.map (fun j -> p.lower.(j)) vars;
        r_var_keys = Array.map (fun j -> id.var_keys.(j)) vars;
        r_row_keys = row_keys;
        r_store_key = row_keys.(0)
      }
    in
    let preps = Array.init nb prep in
    (* The unkeyed path's warm-start decision, reproduced verbatim: the
       old rows must be a coefficient-wise positional prefix of the new
       ones with variables only appended; the old basis then remaps by
       index arithmetic alone (structural columns keep their index,
       slack of old row i becomes slack of row i, new rows start on
       their own slack). *)
    let warm_global =
      match st.keyed_prev with
      | Some { pk_nvars; pk_rows; pk_basis = Some basis }
        when pk_nvars <= n && Array.length pk_rows <= m ->
        let pm = Array.length pk_rows in
        let ok = ref true in
        for i = 0 to pm - 1 do
          if !ok && not (coeffs_equal cons.(i).coeffs pk_rows.(i)) then ok := false
        done;
        if not !ok then None
        else
          Some
            (Array.init m (fun i ->
                 if i >= pm then n + i
                 else begin
                   let c = basis.(i) in
                   if c < pk_nvars then c else n + (c - pk_nvars)
                 end))
      | _ -> None
    in
    (* Solve one block under a fixed method. [warm_local = None] means
       cold. Raises [Bail_to_cold] when a warm replay cannot be
       installed, so the caller can rerun every block cold — the exact
       analogue of the unkeyed path's global fallback. *)
    let solve_one ~warm_local pr =
      let cached =
        match Hashtbl.find_opt st.blocks pr.r_store_key with
        | Some e
          when e.e_row_keys = pr.r_row_keys
               && e.e_var_keys = pr.r_var_keys
               && keyed_rows_equal e.e_rows pr.r_keyed_rows
               && float_array_equal e.e_bounds pr.r_bounds
               && float_array_equal e.e_obj pr.r_sub_obj
               && float_array_equal e.e_lower pr.r_sub_lower
               && e.e_warm = warm_local ->
          e.e_stamp <- st.solve_stamp;
          Some (Ok (e.e_values, e.e_basis))
        | _ -> None
      in
      match cached with
      | Some r -> (r, warm_local, false)
      | None ->
        let result =
          match warm_local with
          | Some w -> (
            match
              Simplex.warm_solve st.ws ~obj:pr.r_sub_obj ~rows:pr.r_sub_rows
                ~rhs:pr.r_sub_rhs ~warm:w
            with
            | Some r -> r
            | None -> raise Bail_to_cold)
          | None ->
            Simplex.maximize_sparse ~ws:st.ws ~obj:pr.r_sub_obj ~rows:pr.r_sub_rows
              ~rhs:pr.r_sub_rhs ()
        in
        (result, warm_local, true)
    in
    let run_pass ~warm_of =
      Array.map (fun pr -> (pr, solve_one ~warm_local:(warm_of pr) pr)) preps
    in
    let results =
      match warm_global with
      | None -> run_pass ~warm_of:(fun _ -> None)
      | Some g -> (
        (* remap the global warm basis into each block's local columns *)
        let warm_of pr =
          let vpos = Hashtbl.create (2 * Array.length pr.r_vars) in
          Array.iteri (fun pos j -> Hashtbl.replace vpos j pos) pr.r_vars;
          let rpos = Hashtbl.create (2 * Array.length pr.r_rows) in
          Array.iteri (fun pos i -> Hashtbl.replace rpos i pos) pr.r_rows;
          let n_b = Array.length pr.r_vars in
          match
            Array.map
              (fun i ->
                let c = g.(i) in
                (* lint: allow partial-stdlib — Not_found is the detection
                   mechanism: a warm basic column outside this block means
                   a stale hint, and the handler below turns exactly that
                   exception into Bail_to_cold *)
                if c < n then Hashtbl.find vpos c else n_b + Hashtbl.find rpos (c - n))
              pr.r_rows
          with
          | w -> Some w
          | exception Not_found ->
            (* a basic column escaped its block: can only mean the hint
               is stale in a way the unkeyed path would also reject *)
            raise Bail_to_cold
        in
        try run_pass ~warm_of with Bail_to_cold -> run_pass ~warm_of:(fun _ -> None))
    in
    let err = ref None in
    Array.iter
      (fun (_, (r, _, _)) ->
        match r with
        | Error `Infeasible -> err := Some Infeasible
        | Error `Unbounded -> if !err <> Some Infeasible then err := Some Unbounded
        | Ok _ -> ())
      results;
    if !free_unbounded && !err <> Some Infeasible then err := Some Unbounded;
    match !err with
    | Some e ->
      st.prev <- None;
      st.keyed_prev <- None;
      Error e
    | None ->
      (* Commit: scatter block solutions, stitch the global basis, and
         refresh the per-block cache. *)
      let y = Array.make n 0. in
      let basis_ok = ref true in
      let global_basis = Array.make m 0 in
      Array.iter
        (fun (pr, (r, warm_used, fresh)) ->
          match r with
          | Error _ -> assert false
          | Ok (by, bbasis) ->
            Array.iteri (fun pos j -> y.(j) <- by.(pos)) pr.r_vars;
            (match bbasis with
             | None -> basis_ok := false
             | Some b ->
               let n_b = Array.length pr.r_vars in
               Array.iteri
                 (fun li i ->
                   let c = b.(li) in
                   global_basis.(i) <-
                     (if c < n_b then pr.r_vars.(c) else n + pr.r_rows.(c - n_b)))
                 pr.r_rows);
            if fresh then
              Hashtbl.replace st.blocks pr.r_store_key
                { e_row_keys = pr.r_row_keys;
                  e_rows = pr.r_keyed_rows;
                  e_bounds = pr.r_bounds;
                  e_var_keys = pr.r_var_keys;
                  e_obj = pr.r_sub_obj;
                  e_lower = pr.r_sub_lower;
                  e_warm = warm_used;
                  e_values = by;
                  e_basis = bbasis;
                  e_stamp = st.solve_stamp
                })
        results;
      let stitched = if !basis_ok then Some global_basis else None in
      let s = finish p y in
      st.prev <-
        Some
          { p_nvars = n;
            p_cons = cons;
            p_obj = Array.copy p.objective;
            p_lower = Array.copy p.lower;
            p_basis = stitched;
            p_values = Array.copy s.values;
            p_objective_value = s.objective_value
          };
      st.keyed_prev <-
        Some
          { pk_nvars = n; pk_rows = Array.map (fun c -> c.coeffs) cons; pk_basis = stitched };
      (* Occasional sweep: drop cache entries for blocks that have not
         appeared in a while (merged away, departed tasks). *)
      if st.solve_stamp land 255 = 0 then
        Hashtbl.iter
          (fun k e -> if e.e_stamp < st.solve_stamp - 16 then Hashtbl.remove st.blocks k)
          (Hashtbl.copy st.blocks);
      Ok s
  end

let solve ?(backend = Exact) ?state ?identity:ident p =
  let exact () =
    let cons = Array.of_list p.constraints in
    match state with
    | Some { prev = Some pv; _ } when snapshot_matches pv p cons ->
      Ok { values = Array.copy pv.p_values; objective_value = pv.p_objective_value }
    | _ -> (
      let sparse = Array.map (fun c -> c.coeffs) cons in
      let rhs = shifted_rhs p cons in
      let ws, warm =
        match state with
        | None -> (None, None)
        | Some st -> (Some st.ws, warm_hint st p cons)
      in
      match Simplex.maximize_sparse ?ws ?warm ~obj:p.objective ~rows:sparse ~rhs () with
      | Ok (y, basis) ->
        let s = finish p y in
        Option.iter
          (fun st ->
            (* a plain solve breaks the keyed path's solve-to-solve
               continuity; invalidate rather than risk a stale replay *)
            st.keyed_prev <- None;
            st.prev <-
              Some
                { p_nvars = p.nvars;
                  p_cons = cons;
                  p_obj = Array.copy p.objective;
                  p_lower = Array.copy p.lower;
                  p_basis = basis;
                  p_values = Array.copy s.values;
                  p_objective_value = s.objective_value
                })
          state;
        Ok s
      | Error e ->
        Option.iter
          (fun st ->
            st.prev <- None;
            st.keyed_prev <- None)
          state;
        (match e with
         | `Infeasible -> Error Infeasible
         | `Unbounded -> Error Unbounded))
  in
  match backend with
  | Exact -> (
    match (state, ident) with
    | Some st, Some id -> (
      let cons = Array.of_list p.constraints in
      match st.prev with
      | Some pv when snapshot_matches pv p cons ->
        Ok { values = Array.copy pv.p_values; objective_value = pv.p_objective_value }
      | _ -> exact_keyed st id p cons)
    | _ -> exact ())
  | Approx eps -> (
    (* Sparse view after the lower-bound substitution x = lower + y:
       canonical ascending rows plus the shifted bounds — no dense m x n
       matrix is ever materialized, and the per-state CSR/heap arena is
       reused across consecutive solves. *)
    let cons = Array.of_list p.constraints in
    let rows = Array.map (fun c -> canonical_row c.coeffs) cons in
    let rhs = shifted_rhs p cons in
    let pws = Option.map (fun st -> st.pws) state in
    match Packing.maximize_sparse ?ws:pws ~eps ~obj:p.objective ~rows ~rhs () with
    | Ok y -> Ok (finish p y)
    | Error `Unbounded -> Error Unbounded
    | Error `Not_packing -> exact ())
