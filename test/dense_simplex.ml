(* The dense-matrix entry point to the simplex, for tests that state an
   LP as a full constraint matrix: a cold {!Sparse_simplex.maximize_sparse}
   on the nonzero entries. *)

let maximize ~obj ~rows ~rhs =
  let n = Array.length obj in
  let m = Array.length rows in
  if Array.length rhs <> m then invalid_arg "Dense_simplex.maximize: rhs length";
  Array.iter
    (fun r -> if Array.length r <> n then invalid_arg "Dense_simplex.maximize: row length")
    rows;
  let sparse =
    Array.map
      (fun r ->
        let acc = ref [] in
        for j = n - 1 downto 0 do
          (* lint: allow float-eq — structural sparsity test: only exact
             zeros may be dropped from the row; an epsilon here would
             silently delete small constraint coefficients *)
          if r.(j) <> 0. then acc := (j, r.(j)) :: !acc
        done;
        !acc)
      rows
  in
  match Sparse_simplex.maximize_sparse ~obj ~rows:sparse ~rhs () with
  | Ok (x, _) -> Ok x
  | Error _ as e -> e
