(* Deeper solver validation: a 3-variable brute-force oracle for the
   simplex and randomized Phase-I selection invariants. *)

module Lp = S3_lp.Lp
module Congestion = S3_core.Congestion
module Problem = S3_core.Problem
module Task = S3_workload.Task
module Prng = S3_util.Prng
open Helpers

let tc = Alcotest.test_case

(* Brute-force 3d LP oracle: enumerate intersections of every triple of
   hyperplanes (constraints + axis planes), keep the feasible ones,
   return the best objective. Exponential, but fine for tiny inputs. *)
let brute_force_3d ~obj ~rows ~rhs =
  let planes =
    Array.to_list (Array.mapi (fun i row -> (row.(0), row.(1), row.(2), rhs.(i))) rows)
    @ [ (1., 0., 0., 0.); (0., 1., 0., 0.); (0., 0., 1., 0.) ]
  in
  let solve3 (a1, b1, c1, d1) (a2, b2, c2, d2) (a3, b3, c3, d3) =
    let det =
      (a1 *. ((b2 *. c3) -. (b3 *. c2)))
      -. (b1 *. ((a2 *. c3) -. (a3 *. c2)))
      +. (c1 *. ((a2 *. b3) -. (a3 *. b2)))
    in
    if Float.abs det < 1e-9 then None
    else begin
      let dx =
        (d1 *. ((b2 *. c3) -. (b3 *. c2)))
        -. (b1 *. ((d2 *. c3) -. (d3 *. c2)))
        +. (c1 *. ((d2 *. b3) -. (d3 *. b2)))
      in
      let dy =
        (a1 *. ((d2 *. c3) -. (d3 *. c2)))
        -. (d1 *. ((a2 *. c3) -. (a3 *. c2)))
        +. (c1 *. ((a2 *. d3) -. (a3 *. d2)))
      in
      let dz =
        (a1 *. ((b2 *. d3) -. (b3 *. d2)))
        -. (b1 *. ((a2 *. d3) -. (a3 *. d2)))
        +. (d1 *. ((a2 *. b3) -. (a3 *. b2)))
      in
      Some (dx /. det, dy /. det, dz /. det)
    end
  in
  let feasible (x, y, z) =
    x >= -1e-7 && y >= -1e-7 && z >= -1e-7
    && Array.for_all2
         (fun row b -> (row.(0) *. x) +. (row.(1) *. y) +. (row.(2) *. z) <= b +. 1e-7)
         rows rhs
  in
  let best = ref 0. (* origin is always feasible for packing instances *) in
  let rec triples = function
    | [] -> ()
    | p1 :: rest ->
      List.iteri
        (fun j p2 ->
          List.iteri
            (fun k p3 ->
              if j < k then
                match solve3 p1 p2 p3 with
                | Some v when feasible v ->
                  let x, y, z = v in
                  best := max !best ((obj.(0) *. x) +. (obj.(1) *. y) +. (obj.(2) *. z))
                | _ -> ())
            rest)
        rest;
      triples rest
  in
  triples planes;
  !best

let random_packing_3d seed m =
  let g = Prng.create seed in
  let obj = Array.init 3 (fun _ -> 0.1 +. Prng.float g 5.) in
  let rows = Array.init m (fun _ -> Array.init 3 (fun _ -> 0.1 +. Prng.float g 5.)) in
  let rhs = Array.init m (fun _ -> 1. +. Prng.float g 20.) in
  (obj, rows, rhs)

let qcheck =
  let open QCheck in
  [ Test.make ~name:"simplex matches 3d brute force" ~count:250
      (pair (int_range 0 100000) (int_range 1 5))
      (fun (seed, m) ->
        let obj, rows, rhs = random_packing_3d seed m in
        match Dense_simplex.maximize ~obj ~rows ~rhs with
        | Error _ -> false
        | Ok x ->
          let got = (obj.(0) *. x.(0)) +. (obj.(1) *. x.(1)) +. (obj.(2) *. x.(2)) in
          let want = brute_force_3d ~obj ~rows ~rhs in
          Float.abs (got -. want) <= 1e-4 *. (1. +. want));
    Test.make ~name:"lower-bound substitution preserves optimality" ~count:200
      (int_range 0 100000) (fun seed ->
        (* max 1.x s.t. sum x_i <= B with floors l_i: optimum is always
           exactly B when sum l <= B, infeasible otherwise. *)
        let g = Prng.create seed in
        let n = 2 + Prng.int g 4 in
        let lower = Array.init n (fun _ -> Prng.float g 5.) in
        let budget = Prng.float g (float_of_int n *. 5.) in
        let p =
          Lp.make ~nvars:n ~objective:(Array.make n 1.) ~lower
            [ { Lp.coeffs = List.init n (fun j -> (j, 1.)); bound = budget } ]
        in
        let floor_sum = Array.fold_left ( +. ) 0. lower in
        match Lp.solve p with
        | Ok s ->
          floor_sum <= budget +. 1e-6
          && Float.abs (s.Lp.objective_value -. budget) <= 1e-6
          && Lp_check.feasible p s.Lp.values
        | Error Lp.Infeasible -> floor_sum > budget -. 1e-6
        | Error Lp.Unbounded -> false);
    Test.make ~name:"phase-I selection: k distinct candidates on random load" ~count:250
      (int_range 0 100000) (fun seed ->
        let g = Prng.create seed in
        (* Random busy flows loading the 9-server fixture. *)
        let busy =
          List.init (Prng.int g 6) (fun i ->
              let destination = Prng.int g 9 in
              let source = (destination + 1 + Prng.int g 8) mod 9 in
              let source = if source = destination then (source + 1) mod 9 else source in
              flow ~flow_id:(1000 + i) ~source
                (task ~id:(100 + i) ~deadline:(1. +. Prng.float g 20.)
                   ~volume:(10. +. Prng.float g 4000.)
                   ~sources:[| source |] ~destination ()))
        in
        let v = view busy in
        let destination = Prng.int g 9 in
        let candidates =
          List.filter (fun s -> s <> destination) [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
        in
        let k = 1 + Prng.int g (List.length candidates - 1) in
        let fresh =
          task ~id:999 ~k ~deadline:(1. +. Prng.float g 30.)
            ~sources:(Array.of_list candidates) ~destination ()
        in
        let picked = Congestion.select_least_congested v fresh in
        Array.length picked = k
        && List.length (List.sort_uniq compare (Array.to_list picked)) = k
        && Array.for_all (fun s -> List.mem s candidates) picked);
    Test.make ~name:"phase-I prefers a strictly idle source over a strictly loaded one"
      ~count:200 (int_range 0 100000) (fun seed ->
        let g = Prng.create seed in
        (* The loaded candidate sits in rack 1 and its busy transfer is
           intra-rack, so no shared TOR can confound the comparison
           with the idle rack-2 candidate. *)
        let loaded = 3 + Prng.int g 3 in
        let busy_dest = 3 + ((loaded - 3 + 1 + Prng.int g 2) mod 3) in
        let idle = 6 + Prng.int g 3 in
        let busy =
          flow ~flow_id:1000 ~source:loaded
            (task ~id:100 ~deadline:2. ~volume:1900. ~sources:[| loaded |]
               ~destination:busy_dest ())
        in
        let v = view [ busy ] in
        let fresh = task ~id:999 ~k:1 ~sources:[| loaded; idle |] ~destination:0 () in
        (Congestion.select_least_congested v fresh).(0) = idle)
  ]

let test_simplex_many_redundant_rows () =
  (* 40 copies of the same constraint must not confuse phase pivoting. *)
  let rows = Array.make 40 [| 1.; 1. |] in
  let rhs = Array.make 40 5. in
  match Dense_simplex.maximize ~obj:[| 1.; 2. |] ~rows ~rhs with
  | Ok x ->
    Alcotest.(check (float 1e-6)) "optimum" 10. ((1. *. x.(0)) +. (2. *. x.(1)))
  | Error _ -> Alcotest.fail "feasible expected"

let test_simplex_tight_equality_via_pair () =
  (* x = 3 encoded as x <= 3 and -x <= -3; maximize -x. *)
  match
    Dense_simplex.maximize ~obj:[| -1. |] ~rows:[| [| 1. |]; [| -1. |] |] ~rhs:[| 3.; -3. |]
  with
  | Ok x -> Alcotest.(check (float 1e-6)) "pinned" 3. x.(0)
  | Error _ -> Alcotest.fail "feasible expected"

let test_simplex_all_zero_objective () =
  match Dense_simplex.maximize ~obj:[| 0.; 0. |] ~rows:[| [| 1.; 1. |] |] ~rhs:[| 4. |] with
  | Ok x ->
    Alcotest.(check bool) "any feasible point" true (x.(0) +. x.(1) <= 4. +. 1e-9)
  | Error _ -> Alcotest.fail "feasible expected"

let tests =
  ( "solver_stress",
    [ tc "redundant rows" `Quick test_simplex_many_redundant_rows;
      tc "equality via inequality pair" `Quick test_simplex_tight_equality_via_pair;
      tc "zero objective" `Quick test_simplex_all_zero_objective
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
