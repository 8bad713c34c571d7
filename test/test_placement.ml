module P = S3_storage.Placement
module T = S3_net.Topology
module Prng = S3_util.Prng

let tc = Alcotest.test_case

let topo = T.two_tier ~racks:3 ~servers_per_rack:5 ~cst:1. ~cta:1.

let distinct a =
  let l = Array.to_list a in
  List.length (List.sort_uniq compare l) = List.length l

(* Distinct racks a placement touches. *)
let spread topo servers =
  List.length (List.sort_uniq Int.compare (Array.to_list (Array.map (T.rack_of topo) servers)))

let test_flat_uniform () =
  let g = Prng.create 1 in
  for obj = 0 to 50 do
    let placed = P.place g topo P.Flat_uniform ~object_id:obj ~n:9 in
    Alcotest.(check int) "count" 9 (Array.length placed);
    Alcotest.(check bool) "distinct" true (distinct placed)
  done

let test_rack_aware_spread () =
  let g = Prng.create 2 in
  for obj = 0 to 50 do
    let placed = P.place g topo P.Rack_aware ~object_id:obj ~n:6 in
    Alcotest.(check bool) "distinct" true (distinct placed);
    (* 6 chunks over 3 racks: exactly 2 per rack. *)
    Alcotest.(check int) "all racks used" 3 (spread topo placed);
    List.iter
      (fun r ->
        let in_rack =
          Array.to_list placed |> List.filter (fun s -> T.rack_of topo s = r) |> List.length
        in
        Alcotest.(check int) "even spread" 2 in_rack)
      [ 0; 1; 2 ]
  done

let test_rack_aware_full () =
  let g = Prng.create 3 in
  let placed = P.place g topo P.Rack_aware ~object_id:0 ~n:15 in
  Alcotest.(check bool) "uses every server" true (distinct placed);
  Alcotest.(check int) "all" 15 (Array.length placed)

let test_crush_deterministic () =
  let g = Prng.create 4 in
  let weights = Array.make 15 1. in
  let a = P.place g topo (P.Crush_weighted weights) ~object_id:7 ~n:5 in
  let b = P.place (Prng.create 999) topo (P.Crush_weighted weights) ~object_id:7 ~n:5 in
  Alcotest.(check (array int)) "pure function of object id" a b;
  let c = P.place g topo (P.Crush_weighted weights) ~object_id:8 ~n:5 in
  Alcotest.(check bool) "different objects differ" true (a <> c)

let test_crush_zero_weight_excluded () =
  let g = Prng.create 5 in
  let weights = Array.make 15 1. in
  weights.(3) <- 0.;
  for obj = 0 to 100 do
    let placed = P.place g topo (P.Crush_weighted weights) ~object_id:obj ~n:5 in
    Alcotest.(check bool) "server 3 never used" false (Array.exists (fun s -> s = 3) placed)
  done

let test_crush_weight_bias () =
  (* Server 0 with weight 8 should hold far more objects than a
     weight-1 server. *)
  let g = Prng.create 6 in
  let weights = Array.make 15 1. in
  weights.(0) <- 8.;
  let count s =
    let hits = ref 0 in
    for obj = 0 to 2000 do
      let placed = P.place g topo (P.Crush_weighted weights) ~object_id:obj ~n:3 in
      if Array.exists (fun x -> x = s) placed then incr hits
    done;
    !hits
  in
  Alcotest.(check bool) "heavy server favoured" true (count 0 > 2 * count 1)

let test_validation () =
  let g = Prng.create 7 in
  Alcotest.check_raises "n too big" (Invalid_argument "Placement.place: n exceeds servers")
    (fun () -> ignore (P.place g topo P.Flat_uniform ~object_id:0 ~n:16));
  Alcotest.check_raises "n zero" (Invalid_argument "Placement.place: n must be positive")
    (fun () -> ignore (P.place g topo P.Flat_uniform ~object_id:0 ~n:0));
  Alcotest.check_raises "weights length"
    (Invalid_argument "Placement: weight vector length must match server count") (fun () ->
      ignore (P.place g topo (P.Crush_weighted [| 1. |]) ~object_id:0 ~n:1))

let qcheck =
  let open QCheck in
  let policy_gen =
    Gen.oneofl [ P.Flat_uniform; P.Rack_aware; P.Crush_weighted (Array.make 15 1.) ]
  in
  [ Test.make ~name:"placement always distinct and in range" ~count:300
      (make Gen.(triple policy_gen (1 -- 15) (0 -- 5000)))
      (fun (policy, n, obj) ->
        let g = Prng.create obj in
        let placed = P.place g topo policy ~object_id:obj ~n in
        Array.length placed = n && distinct placed
        && Array.for_all (fun s -> s >= 0 && s < 15) placed);
    Test.make ~name:"rack-aware touches min(n, racks) racks" ~count:300
      (make Gen.(pair (1 -- 15) (0 -- 5000)))
      (fun (n, seed) ->
        let g = Prng.create seed in
        let placed = P.place g topo P.Rack_aware ~object_id:0 ~n in
        spread topo placed = min n 3)
  ]

let tests =
  ( "placement",
    [ tc "flat uniform" `Quick test_flat_uniform;
      tc "rack-aware spread" `Quick test_rack_aware_spread;
      tc "rack-aware saturation" `Quick test_rack_aware_full;
      tc "crush deterministic" `Quick test_crush_deterministic;
      tc "crush zero weight" `Quick test_crush_zero_weight_excluded;
      tc "crush weight bias" `Slow test_crush_weight_bias;
      tc "validation" `Quick test_validation
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
