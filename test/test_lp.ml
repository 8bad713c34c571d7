module Lp = S3_lp.Lp

let tc = Alcotest.test_case
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let solve_exn p =
  match Lp.solve p with
  | Ok s -> s
  | Error e -> Alcotest.failf "unexpected %a" Lp_check.pp_error e

let test_simple_max () =
  (* max 3x + 2y st x + y <= 4, x + 3y <= 6 -> (4, 0), obj 12 *)
  let p =
    Lp.make ~nvars:2 ~objective:[| 3.; 2. |] ~lower:[| 0.; 0. |]
      [ { Lp.coeffs = [ (0, 1.); (1, 1.) ]; bound = 4. };
        { Lp.coeffs = [ (0, 1.); (1, 3.) ]; bound = 6. }
      ]
  in
  let s = solve_exn p in
  checkf "objective" 12. s.Lp.objective_value;
  Alcotest.(check bool) "feasible" true (Lp_check.feasible p s.Lp.values)

let test_interior_optimum () =
  (* max x + y st 2x + y <= 4, x + 2y <= 4 -> (4/3, 4/3), obj 8/3 *)
  let p =
    Lp.make ~nvars:2 ~objective:[| 1.; 1. |] ~lower:[| 0.; 0. |]
      [ { Lp.coeffs = [ (0, 2.); (1, 1.) ]; bound = 4. };
        { Lp.coeffs = [ (0, 1.); (1, 2.) ]; bound = 4. }
      ]
  in
  checkf "objective" (8. /. 3.) (solve_exn p).Lp.objective_value

let test_lower_bounds () =
  let p =
    Lp.make ~nvars:2 ~objective:[| 1.; 1. |] ~lower:[| 1.; 0.5 |]
      [ { Lp.coeffs = [ (0, 1.); (1, 1.) ]; bound = 3. } ]
  in
  let s = solve_exn p in
  checkf "objective" 3. s.Lp.objective_value;
  Alcotest.(check bool) "respects lower" true (s.Lp.values.(0) >= 1. -. 1e-9);
  Alcotest.(check bool) "respects lower" true (s.Lp.values.(1) >= 0.5 -. 1e-9)

let test_infeasible_lower_bounds () =
  let p =
    Lp.make ~nvars:2 ~objective:[| 1.; 1. |] ~lower:[| 2.5; 1. |]
      [ { Lp.coeffs = [ (0, 1.); (1, 1.) ]; bound = 3. } ]
  in
  match Lp.solve p with
  | Error Lp.Infeasible -> ()
  | Ok _ -> Alcotest.fail "expected infeasible"
  | Error Lp.Unbounded -> Alcotest.fail "expected infeasible, got unbounded"

let test_unbounded () =
  let p =
    Lp.make ~nvars:2 ~objective:[| 1.; 0. |] ~lower:[| 0.; 0. |]
      [ { Lp.coeffs = [ (1, 1.) ]; bound = 1. } ]
  in
  match Lp.solve p with
  | Error Lp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_negative_rhs_feasible () =
  (* x >= 2 expressed as -x <= -2, maximize -x -> x = 2 *)
  let p =
    Lp.make ~nvars:1 ~objective:[| -1. |] ~lower:[| 0. |]
      [ { Lp.coeffs = [ (0, -1.) ]; bound = -2. }; { Lp.coeffs = [ (0, 1.) ]; bound = 10. } ]
  in
  let s = solve_exn p in
  checkf "x" 2. s.Lp.values.(0)

let test_degenerate () =
  (* Klee-Minty-flavoured degeneracy: redundant constraints at a vertex. *)
  let p =
    Lp.make ~nvars:2 ~objective:[| 1.; 1. |] ~lower:[| 0.; 0. |]
      [ { Lp.coeffs = [ (0, 1.) ]; bound = 1. };
        { Lp.coeffs = [ (1, 1.) ]; bound = 1. };
        { Lp.coeffs = [ (0, 1.); (1, 1.) ]; bound = 2. };
        { Lp.coeffs = [ (0, 1.); (1, 2.) ]; bound = 3. };
        { Lp.coeffs = [ (0, 2.); (1, 1.) ]; bound = 3. }
      ]
  in
  checkf "objective" 2. (solve_exn p).Lp.objective_value

let test_zero_vars_constraints () =
  let p =
    Lp.make ~nvars:1 ~objective:[| 5. |] ~lower:[| 0. |]
      [ { Lp.coeffs = []; bound = 1. }; { Lp.coeffs = [ (0, 1.) ]; bound = 2. } ]
  in
  checkf "objective" 10. (solve_exn p).Lp.objective_value

let test_make_validation () =
  Alcotest.check_raises "objective length" (Invalid_argument "Lp.make: objective length")
    (fun () -> ignore (Lp.make ~nvars:2 ~objective:[| 1. |] ~lower:[| 0.; 0. |] []));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Lp.make: variable index out of range") (fun () ->
      ignore
        (Lp.make ~nvars:1 ~objective:[| 1. |] ~lower:[| 0. |]
           [ { Lp.coeffs = [ (3, 1.) ]; bound = 1. } ]));
  Alcotest.check_raises "negative lower"
    (Invalid_argument "Lp.make: negative lower bound") (fun () ->
      ignore (Lp.make ~nvars:1 ~objective:[| 1. |] ~lower:[| -1. |] []))

(* Brute-force reference: enumerate all vertices (intersections of
   n-subsets of constraint/axis hyperplanes) of a 2-variable LP and
   take the best feasible one. *)
let brute_force_2d ~obj ~rows ~rhs =
  let candidates = ref [ (0., 0.) ] in
  let m = Array.length rows in
  let lines =
    List.init m (fun i -> (rows.(i).(0), rows.(i).(1), rhs.(i)))
    @ [ (1., 0., 0.); (0., 1., 0.) ]
  in
  List.iteri
    (fun i (a1, b1, c1) ->
      List.iteri
        (fun j (a2, b2, c2) ->
          if i < j then begin
            let det = (a1 *. b2) -. (a2 *. b1) in
            if Float.abs det > 1e-9 then begin
              let x = ((c1 *. b2) -. (c2 *. b1)) /. det in
              let y = ((a1 *. c2) -. (a2 *. c1)) /. det in
              candidates := (x, y) :: !candidates
            end
          end)
        lines)
    lines;
  let feasible (x, y) =
    x >= -1e-7 && y >= -1e-7
    && Array.for_all2
         (fun row b -> (row.(0) *. x) +. (row.(1) *. y) <= b +. 1e-7)
         rows rhs
  in
  List.filter feasible !candidates
  |> List.fold_left (fun acc (x, y) -> max acc ((obj.(0) *. x) +. (obj.(1) *. y))) neg_infinity

let qcheck =
  let open QCheck in
  let coeff = float_range 0.1 5. in
  let bound = float_range 1. 20. in
  let instance =
    make
      Gen.(
        let f lo hi = float_range lo hi in
        map3
          (fun o rows rhs -> (o, rows, rhs))
          (pair (f 0.1 5.) (f 0.1 5.))
          (list_size (1 -- 5) (pair (f 0.1 5.) (f 0.1 5.)))
          (list_size (1 -- 5) (f 1. 20.)))
  in
  ignore coeff;
  ignore bound;
  [ Test.make ~name:"simplex matches brute force on random 2d packing" ~count:300 instance
      (fun ((o1, o2), rows, rhs) ->
        let m = min (List.length rows) (List.length rhs) in
        assume (m > 0);
        let rows = Array.of_list (List.filteri (fun i _ -> i < m) rows) in
        let rhs = Array.of_list (List.filteri (fun i _ -> i < m) rhs) in
        let rows = Array.map (fun (a, b) -> [| a; b |]) rows in
        let obj = [| o1; o2 |] in
        match Dense_simplex.maximize ~obj ~rows ~rhs with
        | Error _ -> false
        | Ok x ->
          let got = (obj.(0) *. x.(0)) +. (obj.(1) *. x.(1)) in
          let want = brute_force_2d ~obj ~rows ~rhs in
          Float.abs (got -. want) <= 1e-4 *. (1. +. Float.abs want));
    Test.make ~name:"simplex solution always satisfies constraints" ~count:300 instance
      (fun ((o1, o2), rows, rhs) ->
        let m = min (List.length rows) (List.length rhs) in
        assume (m > 0);
        let rows =
          Array.of_list (List.filteri (fun i _ -> i < m) rows) |> Array.map (fun (a, b) -> [| a; b |])
        in
        let rhs = Array.of_list (List.filteri (fun i _ -> i < m) rhs) in
        match Dense_simplex.maximize ~obj:[| o1; o2 |] ~rows ~rhs with
        | Error _ -> false
        | Ok x ->
          x.(0) >= -1e-7 && x.(1) >= -1e-7
          && Array.for_all2
               (fun row b -> (row.(0) *. x.(0)) +. (row.(1) *. x.(1)) <= b +. 1e-6)
               rows rhs)
  ]

let tests =
  ( "lp",
    [ tc "simple max" `Quick test_simple_max;
      tc "interior optimum" `Quick test_interior_optimum;
      tc "lower bounds" `Quick test_lower_bounds;
      tc "infeasible lower bounds" `Quick test_infeasible_lower_bounds;
      tc "unbounded" `Quick test_unbounded;
      tc "negative rhs (phase 1)" `Quick test_negative_rhs_feasible;
      tc "degenerate vertex" `Quick test_degenerate;
      tc "empty constraint row" `Quick test_zero_vars_constraints;
      tc "make validation" `Quick test_make_validation
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
