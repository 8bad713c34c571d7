module Matrix = S3_storage.Matrix
module Gf = S3_storage.Gf256
module Prng = S3_util.Prng

let tc = Alcotest.test_case

let random_matrix g n =
  Matrix.init ~rows:n ~cols:n (fun _ _ -> Prng.int g 256)

let identity n = Matrix.init ~rows:n ~cols:n (fun i j -> if i = j then 1 else 0)
let zeros n = Matrix.init ~rows:n ~cols:n (fun _ _ -> 0)

let equal a b =
  Matrix.rows a = Matrix.rows b
  && Matrix.cols a = Matrix.cols b
  && List.for_all
       (fun i -> List.for_all (fun j -> Matrix.get a i j = Matrix.get b i j)
           (List.init (Matrix.cols a) Fun.id))
       (List.init (Matrix.rows a) Fun.id)

(* Matrix–vector product, through [mul] on a one-column matrix. *)
let apply m v =
  let r = Matrix.mul m (Matrix.init ~rows:(Array.length v) ~cols:1 (fun i _ -> v.(i))) in
  Array.init (Matrix.rows r) (fun i -> Matrix.get r i 0)

let test_identity_neutral () =
  let g = Prng.create 4 in
  let a = random_matrix g 5 in
  Alcotest.(check bool) "I*A = A" true (equal (Matrix.mul (identity 5) a) a);
  Alcotest.(check bool) "A*I = A" true (equal (Matrix.mul a (identity 5)) a)

let test_invert_roundtrip () =
  let g = Prng.create 8 in
  let found = ref 0 in
  while !found < 10 do
    let a = random_matrix g 4 in
    match Matrix.invert a with
    | None -> ()
    | Some inv ->
      incr found;
      Alcotest.(check bool) "A * A^-1 = I" true
        (equal (Matrix.mul a inv) (identity 4));
      Alcotest.(check bool) "A^-1 * A = I" true
        (equal (Matrix.mul inv a) (identity 4))
  done

let test_singular () =
  let a = zeros 3 in
  Alcotest.(check bool) "zero matrix singular" true (Matrix.invert a = None);
  (* Two equal rows. *)
  let b = Matrix.init ~rows:2 ~cols:2 (fun _ j -> j + 1) in
  Alcotest.(check bool) "equal rows singular" true (Matrix.invert b = None)

let test_apply () =
  let a = Matrix.init ~rows:2 ~cols:2 (fun i j -> if i = j then 1 else 0) in
  Alcotest.(check (array int)) "identity apply" [| 9; 17 |] (apply a [| 9; 17 |]);
  Alcotest.check_raises "length" (Invalid_argument "Matrix.mul: shape mismatch") (fun () ->
      ignore (apply a [| 1 |]))

let test_select_rows () =
  let a = Matrix.init ~rows:4 ~cols:2 (fun i j -> (i * 2) + j) in
  let s = Matrix.select_rows a [ 3; 1 ] in
  Alcotest.(check int) "rows" 2 (Matrix.rows s);
  Alcotest.(check int) "first row from 3" 6 (Matrix.get s 0 0);
  Alcotest.(check int) "second row from 1" 2 (Matrix.get s 1 0)

let test_cauchy_mds () =
  (* Every square submatrix of a Cauchy matrix (x_i = i, y_j = 6 + j,
     the construction the codec's parity rows use) is invertible:
     sample row/column subsets and verify. *)
  let c = Matrix.init ~rows:6 ~cols:6 (fun i j -> Gf.inv (Gf.add i (6 + j))) in
  let g = Prng.create 21 in
  for _ = 1 to 25 do
    let k = 1 + Prng.int g 5 in
    let rows = S3_util.Prng.sample g k [ 0; 1; 2; 3; 4; 5 ] in
    let cols = S3_util.Prng.sample g k [ 0; 1; 2; 3; 4; 5 ] in
    let sub =
      Matrix.init ~rows:k ~cols:k (fun i j ->
          Matrix.get c (List.nth rows i) (List.nth cols j))
    in
    Alcotest.(check bool) "cauchy submatrix invertible" true (Matrix.invert sub <> None)
  done

let test_bounds () =
  let a = zeros 2 in
  Alcotest.check_raises "get" (Invalid_argument "Matrix.get: out of range") (fun () ->
      ignore (Matrix.get a 2 0));
  Alcotest.check_raises "set" (Invalid_argument "Matrix.set: out of range") (fun () ->
      Matrix.set a 0 5 1);
  Alcotest.check_raises "shape" (Invalid_argument "Matrix.mul: shape mismatch") (fun () ->
      ignore (Matrix.mul a (zeros 3)))

let qcheck =
  let open QCheck in
  [ Test.make ~name:"matrix multiplication is linear over vectors" ~count:100
      (pair small_int small_int)
      (fun (s1, s2) ->
        let g = Prng.create ((s1 * 1000) + s2) in
        let a = random_matrix g 3 in
        let x = Array.init 3 (fun _ -> Prng.int g 256) in
        let y = Array.init 3 (fun _ -> Prng.int g 256) in
        let xy = Array.init 3 (fun i -> Gf.add x.(i) y.(i)) in
        let ax = apply a x and ay = apply a y and axy = apply a xy in
        Array.for_all2 (fun s (u, v) -> s = Gf.add u v) axy
          (Array.init 3 (fun i -> (ax.(i), ay.(i)))));
    Test.make ~name:"mul associates with apply" ~count:100 small_int (fun seed ->
        let g = Prng.create seed in
        let a = random_matrix g 3 and b = random_matrix g 3 in
        let x = Array.init 3 (fun _ -> Prng.int g 256) in
        apply (Matrix.mul a b) x = apply a (apply b x))
  ]

let tests =
  ( "matrix",
    [ tc "identity neutral" `Quick test_identity_neutral;
      tc "invert roundtrip" `Quick test_invert_roundtrip;
      tc "singular" `Quick test_singular;
      tc "apply" `Quick test_apply;
      tc "select rows" `Quick test_select_rows;
      tc "cauchy MDS" `Quick test_cauchy_mds;
      tc "bounds" `Quick test_bounds
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
