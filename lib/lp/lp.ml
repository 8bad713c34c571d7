type constr = {
  coeffs : (int * float) list;
  bound : float;
}

type problem = {
  nvars : int;
  nrows : int;
  row_start : int array;
  col : int array;
  coef : float array;
  bound : float array;
  objective : float array;
  lower : float array;
  root : int array;
  anchor : int array;
}

type solution = {
  values : float array;
  objective_value : float;
}

type error =
  | Infeasible
  | Unbounded

(* Grow-only buffers: a call that needs more room replaces the buffer
   (doubling), never shrinks it, and rewrites what it reads. A fresh
   int buffer is all zeros, which [key_count] relies on. *)
let ints a need = if Array.length a >= need then a else Array.make (max need (2 * Array.length a)) 0

let floats a need =
  if Array.length a >= need then a else Array.make (max need (2 * Array.length a)) 0.

(* Union-find over rows with path compression; the smaller root wins,
   so a block's root is its lowest row whatever the union order. Plain
   top-level recursion: a [find] per entry must not allocate. *)
let rec root_of link x = if link.(x) = x then x else root_of link link.(x)

let rec compress link r x =
  if link.(x) <> r then begin
    let nx = link.(x) in
    link.(x) <- r;
    compress link r nx
  end

let find link x =
  let r = root_of link x in
  compress link r x;
  r

let union link a b =
  let ra = find link a and rb = find link b in
  if ra < rb then link.(rb) <- ra else if rb < ra then link.(ra) <- rb

(* Point every row straight at its block's root, the form [solve]
   reads. *)
let flatten link m =
  for r = 0 to m - 1 do
    link.(r) <- find link r
  done

(* Reusable solver state. [build] and [spare] are two sets of problem
   arrays: [packing] fills [build], and a solve that keeps a problem
   built there as its memo swaps the two, so the memo's arrays are
   never overwritten and never copied. Likewise [y]/[basis] receive a
   solve's results and swap with [last_y]/[last_basis], the memo's.
   The rest is per-call scratch. *)
type state = {
  ws : Simplex.workspace;
  mutable build : problem;
  mutable spare : problem;
  mutable memo : problem option;  (* the last problem solved without error *)
  mutable memo_basis : bool;  (* its basis in [last_basis] replays *)
  mutable y : float array;  (* the scatter vector: values minus lower bounds *)
  mutable basis : int array;  (* global basis: column < nvars, or nvars + slack row *)
  mutable last_y : float array;
  mutable last_basis : int array;
  (* [packing]: per-key entry counts (all zero between calls), key -> row *)
  mutable key_count : int array;
  mutable key_row : int array;
  (* [solve]: the block index. Variable [j] sits at [j] and row [i] at
     [nvars + i] of [block_of] (its block, -1 for a variable in no
     row) and [local] (its position in its block) — the global column
     convention of a basis. Block [b]'s variables are
     [bvars.(vstart.(b) ..)], its rows [brows.(rstart.(b) ..)]. *)
  mutable number : int array;  (* root row -> block number *)
  mutable block_of : int array;
  mutable local : int array;
  mutable vstart : int array;
  mutable bvars : int array;
  mutable rstart : int array;
  mutable brows : int array;
  mutable shifted : float array;  (* right-hand sides after the lower-bound shift *)
  mutable hint : int array;  (* the warm basis, global *)
  mutable bhint : int array;  (* one block's part of it, local *)
  mutable bx : float array;  (* one block's solution, local *)
  mutable bbasis : int array;  (* one block's basis, local *)
}

let make ~nvars ~objective ~lower constraints =
  if nvars < 0 then invalid_arg "Lp.make: negative nvars";
  if Array.length objective <> nvars then invalid_arg "Lp.make: objective length";
  if Array.length lower <> nvars then invalid_arg "Lp.make: lower length";
  Array.iter (fun v -> if v < 0. then invalid_arg "Lp.make: negative lower bound") lower;
  List.iter
    (fun { coeffs; _ } ->
      List.iter
        (fun (j, _) ->
          if j < 0 || j >= nvars then invalid_arg "Lp.make: variable index out of range")
        coeffs)
    constraints;
  let m = List.length constraints in
  let nnz = List.fold_left (fun acc c -> acc + List.length c.coeffs) 0 constraints in
  let row_start = Array.make (m + 1) nnz and col = Array.make nnz 0
  and coef = Array.make nnz 0. and bound = Array.make m 0. in
  let root = Array.init m Fun.id and anchor = Array.make nvars (-1) in
  let pos = ref 0 in
  List.iteri
    (fun i (c : constr) ->
      row_start.(i) <- !pos;
      bound.(i) <- c.bound;
      List.iter
        (fun (j, a) ->
          col.(!pos) <- j;
          coef.(!pos) <- a;
          incr pos;
          if anchor.(j) < 0 then anchor.(j) <- i else union root anchor.(j) i)
        c.coeffs)
    constraints;
  flatten root m;
  { nvars;
    nrows = m;
    row_start;
    col;
    coef;
    bound;
    objective = Array.copy objective;
    lower = Array.copy lower;
    root;
    anchor
  }

let create_state () =
  let buffers () = make ~nvars:0 ~objective:[||] ~lower:[||] [] in
  { ws = Simplex.create_workspace ();
    build = buffers ();
    spare = buffers ();
    memo = None;
    memo_basis = false;
    y = [||];
    basis = [||];
    last_y = [||];
    last_basis = [||];
    key_count = [||];
    key_row = [||];
    number = [||];
    block_of = [||];
    local = [||];
    vstart = [||];
    bvars = [||];
    rstart = [||];
    brows = [||];
    shifted = [||];
    hint = [||];
    bhint = [||];
    bx = [||];
    bbasis = [||]
  }

let packing st ~nkeys ~keys ~capacity ~lower vars =
  st.key_count <- ints st.key_count nkeys;
  st.key_row <- ints st.key_row nkeys;
  let count = st.key_count and key_row = st.key_row in
  (* Each key's entries. *)
  let n = ref 0 and nnz = ref 0 in
  List.iter
    (fun v ->
      let ks = keys v in
      for q = 0 to Array.length ks - 1 do
        let k = ks.(q) in
        if k < 0 || k >= nkeys then begin
          Array.fill count 0 nkeys 0;
          invalid_arg "Lp.packing: key out of range"
        end;
        count.(k) <- count.(k) + 1
      done;
      nnz := !nnz + Array.length ks;
      incr n)
    vars;
  let n = !n and nnz = !nnz in
  let b = st.build in
  let b =
    { b with
      row_start = ints b.row_start (nkeys + 1);
      col = ints b.col nnz;
      coef = floats b.coef nnz;
      bound = floats b.bound nkeys;
      objective = floats b.objective n;
      lower = floats b.lower n;
      root = ints b.root nkeys;
      anchor = ints b.anchor n
    }
  in
  st.build <- b;
  (* Rows: the keys in use, ascending. *)
  let m = ref 0 and pos = ref 0 in
  for k = 0 to nkeys - 1 do
    let c = count.(k) in
    if c > 0 then begin
      let r = !m in
      key_row.(k) <- r;
      b.row_start.(r) <- !pos;
      b.bound.(r) <- capacity k;
      b.root.(r) <- r;
      pos := !pos + c;
      incr m
    end
  done;
  let m = !m in
  b.row_start.(m) <- nnz;
  (* Entries. Each row fills from its end, so it lists its variables in
     descending index and its count is back to zero once full. The rows
     of one variable join one block. *)
  List.iteri
    (fun j v ->
      let ks = keys v in
      if Array.length ks = 0 then b.anchor.(j) <- -1
      else begin
        let r0 = key_row.(ks.(0)) in
        b.anchor.(j) <- r0;
        for q = 0 to Array.length ks - 1 do
          let k = ks.(q) in
          let r = key_row.(k) and c = count.(k) - 1 in
          count.(k) <- c;
          b.col.(b.row_start.(r) + c) <- j;
          b.coef.(b.row_start.(r) + c) <- 1.;
          union b.root r0 r
        done
      end;
      b.objective.(j) <- 1.;
      b.lower.(j) <- lower v)
    vars;
  flatten b.root m;
  { b with nvars = n; nrows = m }

let finish p y =
  let values = Array.init p.nvars (fun j -> p.lower.(j) +. y.(j)) in
  let acc = ref 0. in
  for j = 0 to p.nvars - 1 do
    acc := !acc +. (p.objective.(j) *. values.(j))
  done;
  { values; objective_value = !acc }

(* Typed prefix equality for the memo and the warm-start check.
   [Float.equal] is a total equality (NaN = NaN), so a pathological NaN
   coefficient yields a stable memo hit instead of an unconditional
   miss; for the finite values the solver produces it coincides with
   (=). *)
let ints_equal (a : int array) b len =
  let rec go i = i >= len || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let floats_equal a b len =
  let rec go i = i >= len || (Float.equal a.(i) b.(i) && go (i + 1)) in
  go 0

(* Rows [0, rows) of [q] and [p] hold the same entries. *)
let same_rows q p rows =
  let nnz = q.row_start.(rows) in
  ints_equal q.row_start p.row_start (rows + 1)
  && ints_equal q.col p.col nnz
  && floats_equal q.coef p.coef nnz

(* Memo hit: the whole problem is unchanged. *)
let same_problem q p =
  q.nvars = p.nvars
  && q.nrows = p.nrows
  && same_rows q p p.nrows
  && floats_equal q.bound p.bound p.nrows
  && floats_equal q.objective p.objective p.nvars
  && floats_equal q.lower p.lower p.nvars

(* Warm-basis hit: the memo's rows are a coefficient-wise prefix of
   the new ones and variables were only appended, so the old basis
   columns keep their meaning once slack indices are remapped to the
   new variable count. Bounds, lower bounds and objective are free to
   change — the installed basis is feasibility-checked by the solver.
   Fills [st.hint] and says whether it applies. *)
let warm_hint st p =
  match st.memo with
  | Some q when st.memo_basis && p.nvars >= q.nvars && p.nrows >= q.nrows && same_rows q p q.nrows
    ->
    let n = p.nvars and pn = q.nvars and pm = q.nrows in
    st.hint <- ints st.hint p.nrows;
    for i = 0 to p.nrows - 1 do
      st.hint.(i) <-
        (if i >= pm then n + i
         else begin
           let c = st.last_basis.(i) in
           if c < pn then c else n + (c - pn)
         end)
    done;
    true
  | _ -> false

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
   one whole-problem tableau would take. *)

exception Bail_to_cold

(* Number the blocks by the first variable that reaches them (then any
   row no variable reaches) and list each block's variables and rows in
   ascending order. Returns the block count and whether some variable
   in no row would enter the basis: it maximizes unboundedly, but
   phase 1 runs first, so infeasibility of the constrained part takes
   precedence. *)
let index_blocks st p =
  let n = p.nvars and m = p.nrows in
  st.number <- ints st.number m;
  st.block_of <- ints st.block_of (n + m);
  st.local <- ints st.local (n + m);
  let number = st.number and block_of = st.block_of and local = st.local in
  Array.fill number 0 m (-1);
  let nb = ref 0 in
  let block_of_row r =
    let root = p.root.(r) in
    if number.(root) < 0 then begin
      number.(root) <- !nb;
      incr nb
    end;
    number.(root)
  in
  let free_unbounded = ref false in
  for j = 0 to n - 1 do
    let a = p.anchor.(j) in
    if a >= 0 then block_of.(j) <- block_of_row a
    else begin
      block_of.(j) <- -1;
      if p.objective.(j) > 1e-9 then free_unbounded := true
    end
  done;
  for i = 0 to m - 1 do
    block_of.(n + i) <- block_of_row i
  done;
  let nb = !nb in
  (* Counting sort by block; [local] is the member's rank within it. *)
  let group start members ~first ~count =
    Array.fill start 0 (nb + 1) 0;
    for x = first to first + count - 1 do
      let b = block_of.(x) in
      if b >= 0 then begin
        local.(x) <- start.(b + 1);
        start.(b + 1) <- start.(b + 1) + 1
      end
    done;
    for b = 1 to nb do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    for x = first to first + count - 1 do
      let b = block_of.(x) in
      if b >= 0 then members.(start.(b) + local.(x)) <- x - first
    done
  in
  st.vstart <- ints st.vstart (nb + 1);
  st.rstart <- ints st.rstart (nb + 1);
  st.bvars <- ints st.bvars n;
  st.brows <- ints st.brows m;
  group st.vstart st.bvars ~first:0 ~count:n;
  group st.rstart st.brows ~first:n ~count:m;
  (nb, !free_unbounded)

(* Each row's bound after the substitution x = lower + y, the shift
   summed in the row's entry order. *)
let shift_rhs st p =
  st.shifted <- floats st.shifted p.nrows;
  for i = 0 to p.nrows - 1 do
    let shift = ref 0. in
    for k = p.row_start.(i) to p.row_start.(i + 1) - 1 do
      shift := !shift +. (p.coef.(k) *. p.lower.(p.col.(k)))
    done;
    st.shifted.(i) <- p.bound.(i) -. !shift
  done

let solve_blocks st p =
  let n = p.nvars and m = p.nrows in
  let nb, free_unbounded = index_blocks st p in
  shift_rhs st p;
  st.y <- floats st.y n;
  Array.fill st.y 0 n 0.;
  st.basis <- ints st.basis m;
  st.bx <- floats st.bx n;
  st.bbasis <- ints st.bbasis m;
  st.bhint <- ints st.bhint m;
  let block b =
    { Simplex.start = p.row_start;
      col = p.col;
      coef = p.coef;
      rhs = st.shifted;
      obj = p.objective;
      vars = st.bvars;
      var0 = st.vstart.(b);
      n = st.vstart.(b + 1) - st.vstart.(b);
      rows = st.brows;
      row0 = st.rstart.(b);
      m = st.rstart.(b + 1) - st.rstart.(b);
      local = st.local
    }
  in
  (* The global warm basis in block b's local columns. A basic column
     outside the block can only come from a stale hint, one the whole
     tableau's replay would reject too. *)
  let local_hint b (blk : Simplex.block) =
    for li = 0 to blk.m - 1 do
      let c = st.hint.(blk.rows.(blk.row0 + li)) in
      if st.block_of.(c) <> b then raise Bail_to_cold;
      st.bhint.(li) <- (if c < n then st.local.(c) else blk.n + st.local.(c))
    done
  in
  let err = ref None and basis_ok = ref true in
  (* Solve every block in order, scattering each solution into [y] and
     stitching each basis into [basis] as it comes. *)
  let run ~warm =
    err := if free_unbounded then Some Unbounded else None;
    basis_ok := true;
    for b = 0 to nb - 1 do
      let blk = block b in
      let outcome =
        if warm then begin
          local_hint b blk;
          Simplex.warm st.ws blk ~hint:st.bhint ~x:st.bx ~basis:st.bbasis
        end
        else Simplex.cold st.ws blk ~x:st.bx ~basis:st.bbasis
      in
      match outcome with
      | Simplex.Bailed -> raise Bail_to_cold
      | Simplex.Infeasible -> err := Some Infeasible
      | Simplex.Unbounded -> if Option.is_none !err then err := Some Unbounded
      | Simplex.Optimal { reusable } ->
        for c = 0 to blk.n - 1 do
          st.y.(st.bvars.(blk.var0 + c)) <- st.bx.(c)
        done;
        if not reusable then basis_ok := false
        else
          for li = 0 to blk.m - 1 do
            let c = st.bbasis.(li) in
            st.basis.(st.brows.(blk.row0 + li)) <-
              (if c < blk.n then st.bvars.(blk.var0 + c) else n + st.brows.(blk.row0 + c - blk.n))
          done
    done
  in
  (if warm_hint st p then try run ~warm:true with Bail_to_cold -> run ~warm:false
   else run ~warm:false);
  match !err with
  | Some e ->
    st.memo <- None;
    Error e
  | None ->
    let s = finish p st.y in
    (* A problem [packing] built into [build] becomes the memo: move
       its arrays to [spare], out of the next build's way. *)
    if p.row_start == st.build.row_start then begin
      let b = st.build in
      st.build <- st.spare;
      st.spare <- b
    end;
    let y = st.y and basis = st.basis in
    st.y <- st.last_y;
    st.basis <- st.last_basis;
    st.last_y <- y;
    st.last_basis <- basis;
    st.memo <- Some p;
    st.memo_basis <- !basis_ok;
    Ok s

let solve ?state p =
  let st = match state with Some st -> st | None -> create_state () in
  match st.memo with
  | Some q when same_problem q p -> Ok (finish q st.last_y)
  | _ -> solve_blocks st p
