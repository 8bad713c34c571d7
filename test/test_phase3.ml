(* Phase III against the code it replaced.

   [Oracle] holds the list-based Phase III as it was before the packing
   LP was built into reusable arrays: [Oracle.Lp] is the old [Lp]
   (constraint lists, the union-find block split over a finished row
   list, per-block row lists, the memo snapshot copy, the warm hint)
   and [Oracle.lp_allocate] the old [Allocation.lp_allocate], copied
   verbatim apart from module paths, the list simplex entry points of
   [Sparse_simplex], and a [last_case] record of which path each solve
   took. The property drives both through streams of calls, each side
   through one solver state, on random views of all four topologies,
   and compares the rates bit for bit. *)

module Problem = S3_core.Problem
module Allocation = S3_core.Allocation
module Rtf = S3_core.Rtf
module Task = S3_workload.Task
module T = S3_net.Topology
module Prng = S3_util.Prng

module Oracle = struct
  module Lp = struct
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

    (* Added for the test: which path the last solve took. *)
    type case =
      | Memo
      | Warm
      | Bail
      | Cold

    type state = {
      ws : S3_lp.Simplex.workspace;
      mutable prev : snapshot option;
      mutable last_case : case;
    }

    let create_state () = { ws = S3_lp.Simplex.create_workspace (); prev = None; last_case = Cold }

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
       of [Sparse_simplex.maximize_sparse] on the whole tableau. *)

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
          Sparse_simplex.maximize_sparse ~ws:st.ws ~obj:blk.sub_obj ~rows:blk.sub_rows ~rhs:blk.sub_rhs ()
        | Some warm -> (
          match
            Sparse_simplex.warm_solve st.ws ~obj:blk.sub_obj ~rows:blk.sub_rows ~rhs:blk.sub_rhs ~warm
          with
          | Some r -> r
          | None -> raise Bail_to_cold)
      in
      let cold () = Array.map (solve_block None) blocks in
      let results =
        match warm_hint st p cons with
        | None ->
          st.last_case <- Cold;
          cold ()
        | Some g -> (
          try
            let r = Array.mapi (fun b blk -> solve_block (Some (local_warm g b blk)) blk) blocks in
            st.last_case <- Warm;
            r
          with Bail_to_cold ->
            st.last_case <- Bail;
            cold ())
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
        st.last_case <- Memo;
        Ok { values = Array.copy pv.p_values; objective_value = pv.p_objective_value }
      | _ -> solve_blocks st p cons
  end

  (* A flow whose route is empty (same-server copy) consumes no shared
     capacity; give it a rate that finishes it promptly. *)
  let unbounded_rate (f : Problem.flow) = max 1. (f.Problem.remaining *. 1000.)

  let lp_allocate ?state ?(lower = fun _ -> 0.) (v : Problem.view) flows =
    let routes = List.map (fun f -> (f, Problem.route_arr v f)) flows in
    let local, networked = List.partition (fun (_, r) -> Array.length r = 0) routes in
    let local_rates =
      List.map
        (fun ((f : Problem.flow), _) -> (f.Problem.flow_id, max (lower f) (unbounded_rate f)))
        local
    in
    if networked = [] then Some local_rates
    else begin
      let n = List.length networked in
      let flows_arr = Array.of_list networked in
      (* Group variable indices per entity to form capacity rows, one
         slot per entity id (dense), in ascending-entity order. *)
      let nent = Array.length (S3_net.Topology.entities v.Problem.topo) in
      let cols = Array.make nent ([] : (int * float) list) in
      Array.iteri
        (fun j (_, route) -> Array.iter (fun e -> cols.(e) <- (j, 1.) :: cols.(e)) route)
        flows_arr;
      let constraints = ref [] in
      for e = nent - 1 downto 0 do
        match cols.(e) with
        | [] -> ()
        | coeffs ->
          constraints := { Lp.coeffs; bound = max 0. (v.Problem.available e) } :: !constraints
      done;
      let constraints = !constraints in
      let lower_arr = Array.map (fun (f, _) -> max 0. (lower f)) flows_arr in
      let problem =
        Lp.make ~nvars:n ~objective:(Array.make n 1.) ~lower:lower_arr constraints
      in
      match Lp.solve ?state problem with
      | Error _ -> None
      | Ok { Lp.values; _ } ->
        let rates =
          Array.to_list
            (Array.mapi
               (fun j ((f : Problem.flow), _) -> (f.Problem.flow_id, max 0. values.(j)))
               flows_arr)
        in
        Some (local_rates @ rates)
    end
end

(* ---- random views ---- *)

let topology g =
  match Prng.int g 4 with
  | 0 -> T.two_tier ~racks:(1 + Prng.int g 3) ~servers_per_rack:(2 + Prng.int g 3) ~cst:1000. ~cta:2500.
  | 1 -> T.fat_tree ~k:(2 * (1 + Prng.int g 2)) ~cst:1000. ~cta:2500.
  | 2 ->
    T.leaf_spine ~leaves:(1 + Prng.int g 3) ~spines:(1 + Prng.int g 2)
      ~servers_per_leaf:(2 + Prng.int g 3) ~cst:1000. ~cta:2500.
  | _ -> T.bcube ~ports:(2 + Prng.int g 2) ~levels:(1 + Prng.int g 2) ~cst:1000. ~cta:2500.

(* One stream's world: the fabric, the live flows (grouped by task),
   what each entity has left, the clock, and how lower bounds are set. *)
type scene = {
  topo : T.t;
  mutable now : float;
  mutable tasks : Problem.flow list list;
  mutable avail : float array;
  mutable lower_mode : int;
  mutable next_id : int;
}

(* A task of 1-3 flows. Deadlines fall at, before or after [now], so
   the LRB is zero, finite or infinite; about one flow in eight reads
   from the destination itself, so its route is empty. *)
let new_task g s =
  let nservers = T.servers s.topo in
  let destination = Prng.int g nservers in
  let others = Array.init (nservers - 1) (fun i -> if i < destination then i else i + 1) in
  for i = Array.length others - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let x = others.(i) in
    others.(i) <- others.(j);
    others.(j) <- x
  done;
  let k = 1 + Prng.int g (min 3 (nservers - 1)) in
  let sources = Array.sub others 0 k in
  let deadline =
    match Prng.int g 8 with
    | 0 -> s.now
    | 1 -> s.now -. 0.5
    | _ -> s.now +. 0.5 +. Prng.float g 20.
  in
  let volume = 100. +. Prng.float g 4000. in
  let task = Task.v ~id:s.next_id ~arrival:0. ~deadline ~volume ~k ~sources ~destination () in
  s.next_id <- s.next_id + 1;
  List.init k (fun j ->
      let flow_id = (100 * task.Task.id) + j in
      { Problem.flow_id;
        task;
        source = (if Prng.int g 8 = 0 then destination else sources.(j));
        remaining = (if Prng.int g 10 = 0 then 0. else Prng.float g volume)
      })

(* Each entity keeps its capacity, a random share of it, or none. *)
let fresh_avail g topo =
  Array.map
    (fun (e : T.entity) ->
      match Prng.int g 6 with
      | 0 -> 0.
      | 1 | 2 -> e.T.capacity *. Prng.float g 1.
      | _ -> e.T.capacity)
    (T.entities topo)

let scene g =
  let topo = topology g in
  let s =
    { topo;
      now = 1. +. Prng.float g 4.;
      tasks = [];
      avail = fresh_avail g topo;
      lower_mode = Prng.int g 4;
      next_id = 0
    }
  in
  s.tasks <- List.init (1 + Prng.int g 6) (fun _ -> new_task g s);
  s

let view s =
  let avail = s.avail in
  { Problem.now = s.now;
    topo = s.topo;
    flows = lazy (List.concat s.tasks);
    available = (fun e -> avail.(e));
    load = None
  }

(* Zero, the LRB (0 where it is infinite, as LPAll does), a scaled LRB
   (beyond 1 it is often infeasible), or the raw LRB, infinite for an
   expired deadline. *)
let lower s v =
  let finite f =
    let l = Rtf.flow_lrb v f in
    if Float.is_finite l then l else 0.
  in
  match s.lower_mode with
  | 0 -> fun _ -> 0.
  | 1 -> finite
  | 2 -> fun f -> 3. *. finite f
  | _ -> Rtf.flow_lrb v

(* The next call of a stream: the same view again (the memo), drifted
   capacities, time passing (bounds move, structure stays: a warm start
   that replays or bails), a new lower-bound rule, or a task arriving
   or leaving (the structure grows or changes). *)
let step g s =
  match Prng.int g 7 with
  | 0 | 1 -> ()
  | 2 ->
    s.avail <-
      Array.map (fun a -> if Prng.int g 3 = 0 then a *. (0.1 +. Prng.float g 1.4) else a) s.avail
  | 3 ->
    s.now <- s.now +. Prng.float g 0.5;
    s.tasks <-
      List.map
        (List.map (fun (f : Problem.flow) ->
             { f with Problem.remaining = max 0. (f.Problem.remaining -. Prng.float g 200.) }))
        s.tasks
  | 4 -> s.lower_mode <- Prng.int g 4
  | 5 -> s.tasks <- s.tasks @ [ new_task g s ]
  | _ -> (
    match s.tasks with
    | [] | [ _ ] -> ()
    | _ :: rest -> s.tasks <- rest)

(* ---- comparison ---- *)

let same_rates a b =
  List.equal
    (fun (i, x) (j, y) -> i = j && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let show = function
  | None -> "None"
  | Some rates -> String.concat ";" (List.map (fun (i, r) -> Printf.sprintf "%d:%h" i r) rates)

(* How often each oracle path ran: memo, warm, bail, cold. *)
type tally = {
  mutable memo : int;
  mutable warm : int;
  mutable bail : int;
  mutable cold : int;
}

(* One stream of 3-8 calls, each side through its own solver state;
   the first call whose rates differ, if any. *)
let stream_mismatch ?tally seed =
  let g = Prng.create seed in
  let s = scene g in
  let st = S3_lp.Lp.create_state () and ost = Oracle.Lp.create_state () in
  let calls = 3 + Prng.int g 6 in
  let rec go call =
    if call = calls then None
    else begin
      let v = view s in
      let flows = Lazy.force v.Problem.flows and lower = lower s v in
      let got = Allocation.lp_allocate ~state:st ~lower v flows in
      ost.Oracle.Lp.last_case <- Oracle.Lp.Cold;
      let want = Oracle.lp_allocate ~state:ost ~lower v flows in
      let networked = List.exists (fun f -> Array.length (Problem.route_arr v f) > 0) flows in
      Option.iter
        (fun t ->
          if networked then
            match ost.Oracle.Lp.last_case with
            | Oracle.Lp.Memo -> t.memo <- t.memo + 1
            | Oracle.Lp.Warm -> t.warm <- t.warm + 1
            | Oracle.Lp.Bail -> t.bail <- t.bail + 1
            | Oracle.Lp.Cold -> t.cold <- t.cold + 1)
        tally;
      let agree =
        match (got, want) with
        | None, None -> true
        | Some a, Some b -> same_rates a b
        | _ -> false
      in
      if not agree then
        Some (Printf.sprintf "seed %d call %d: got %s, oracle %s" seed call (show got) (show want))
      else begin
        step g s;
        go (call + 1)
      end
    end
  in
  go 0

let qcheck =
  let open QCheck in
  Test.make ~name:"lp_allocate streams == the replaced list-based Phase III, bit for bit"
    ~count:1000 (int_range 0 1_000_000)
    (fun seed ->
      match stream_mismatch seed with
      | None -> true
      | Some m -> Test.fail_report m)

(* A fixed batch of streams first, so that coverage never depends on
   the QCheck seed: every path of the solve must have run — a memo
   hit, a warm basis that replays, one that bails to a cold solve, and
   a cold solve without a hint. *)
let coverage_seeds = 300

let stream_test =
  let name, speed, run = QCheck_alcotest.to_alcotest qcheck in
  ( name,
    speed,
    fun () ->
      let t = { memo = 0; warm = 0; bail = 0; cold = 0 } in
      for seed = 0 to coverage_seeds - 1 do
        Option.iter Alcotest.fail (stream_mismatch ~tally:t seed)
      done;
      List.iter
        (fun (what, n) ->
          if n = 0 then Alcotest.failf "no stream in the fixed batch took the %s path" what)
        [ ("memo", t.memo); ("warm", t.warm); ("bail", t.bail); ("cold", t.cold) ];
      run () )

let tests = ("phase3", [ stream_test ])
