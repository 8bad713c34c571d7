module Prng = S3_util.Prng

let check = Alcotest.check
let tc = Alcotest.test_case

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  check Alcotest.bool "different seeds diverge" true !differs

let test_int_invalid () =
  let g = Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_float_invalid () =
  let g = Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.float: bound must be positive")
    (fun () -> ignore (Prng.float g 0.))

let test_exponential_mean () =
  let g = Prng.create 11 in
  let n = 20000 in
  let total = ref 0. in
  for _ = 1 to n do
    let x = Prng.exponential g ~rate:2. in
    assert (x >= 0.);
    total := !total +. x
  done;
  let mean = !total /. float_of_int n in
  check (Alcotest.float 0.03) "mean ~ 1/rate" 0.5 mean

let test_gaussian_moments () =
  let g = Prng.create 13 in
  let n = 20000 in
  let xs = List.init n (fun _ -> Prng.gaussian g ~mean:3. ~stddev:2.) in
  check (Alcotest.float 0.1) "mean" 3. (S3_util.Stats.mean xs);
  check (Alcotest.float 0.1) "stddev" 2. (S3_util.Stats.stddev xs)

let test_pareto_floor () =
  let g = Prng.create 17 in
  for _ = 1 to 1000 do
    assert (Prng.pareto g ~shape:1.5 ~scale:4. >= 4.)
  done

let test_sample_invalid () =
  let g = Prng.create 19 in
  Alcotest.check_raises "too many" (Invalid_argument "Prng.sample") (fun () ->
      ignore (Prng.sample g 3 [ 1; 2 ]))

let qcheck =
  let open QCheck in
  [ Test.make ~name:"int in bounds" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, n) ->
        let g = Prng.create seed in
        let v = Prng.int g n in
        v >= 0 && v < n);
    Test.make ~name:"float in bounds" ~count:500
      (pair small_int (float_range 0.001 1e6))
      (fun (seed, x) ->
        let g = Prng.create seed in
        let v = Prng.float g x in
        v >= 0. && v < x);
    Test.make ~name:"uniform in interval" ~count:500
      (pair small_int (pair (float_range (-100.) 100.) (float_range 0.001 50.)))
      (fun (seed, (lo, width)) ->
        let g = Prng.create seed in
        let v = Prng.uniform g lo (lo +. width) in
        v >= lo && v < lo +. width);
    Test.make ~name:"shuffle is a permutation" ~count:200
      (pair small_int (list_of_size Gen.(1 -- 30) int))
      (fun (seed, xs) ->
        let g = Prng.create seed in
        let a = Array.of_list xs in
        Prng.shuffle g a;
        List.sort compare (Array.to_list a) = List.sort compare xs);
    Test.make ~name:"sample distinct subset" ~count:200
      (pair small_int (int_range 0 20))
      (fun (seed, k) ->
        let g = Prng.create seed in
        let xs = List.init 20 Fun.id in
        let s = Prng.sample g k xs in
        List.length s = k
        && List.sort_uniq compare s = List.sort compare s
        && List.for_all (fun x -> List.mem x xs) s)
  ]

let tests =
  ( "prng",
    [ tc "determinism" `Quick test_determinism;
      tc "seed sensitivity" `Quick test_seed_sensitivity;
      tc "int invalid" `Quick test_int_invalid;
      tc "float invalid" `Quick test_float_invalid;
      tc "exponential mean" `Slow test_exponential_mean;
      tc "gaussian moments" `Slow test_gaussian_moments;
      tc "pareto floor" `Quick test_pareto_floor;
      tc "sample invalid" `Quick test_sample_invalid
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
