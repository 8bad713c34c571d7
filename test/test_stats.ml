module Stats = S3_util.Stats

let tc = Alcotest.test_case
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let test_mean () =
  checkf "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  checkf "empty mean" 0. (Stats.mean [])

let test_total () = checkf "total" 6. (Stats.total [ 1.; 2.; 3. ])

let test_stddev () =
  checkf "constant" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  checkf "singleton" 0. (Stats.stddev [ 5. ]);
  checkf "pair" 1. (Stats.stddev [ 1.; 3. ])

let test_min_max () =
  checkf "min" (-2.) (Stats.minimum [ 3.; -2.; 7. ]);
  checkf "max" 7. (Stats.maximum [ 3.; -2.; 7. ]);
  Alcotest.check_raises "empty min" (Invalid_argument "Stats.minimum: empty") (fun () ->
      ignore (Stats.minimum []));
  Alcotest.check_raises "empty max" (Invalid_argument "Stats.maximum: empty") (fun () ->
      ignore (Stats.maximum []))

let test_percentile () =
  let xs = [ 10.; 20.; 30.; 40. ] in
  checkf "p0" 10. (Stats.percentile 0. xs);
  checkf "p100" 40. (Stats.percentile 100. xs);
  checkf "p50 interpolates" 25. (Stats.percentile 50. xs);
  checkf "single" 7. (Stats.percentile 33. [ 7. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile 50. []));
  Alcotest.check_raises "range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile 101. xs))

let test_cdf () =
  let c = Stats.cdf_of_samples [ 1.; 2.; 2.; 4. ] in
  checkf "below" 0. (Stats.cdf_eval c 0.5);
  checkf "at 1" 0.25 (Stats.cdf_eval c 1.);
  checkf "at 2" 0.75 (Stats.cdf_eval c 2.);
  checkf "above" 1. (Stats.cdf_eval c 10.);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.cdf_of_samples: empty") (fun () ->
      ignore (Stats.cdf_of_samples []))

let test_cdf_points () =
  let c = Stats.cdf_of_samples [ 0.; 10. ] in
  let pts = Stats.cdf_points c ~steps:10 in
  Alcotest.(check int) "count" 11 (List.length pts);
  let _, last = List.nth pts 10 in
  checkf "ends at 1" 1. last

let test_histogram () =
  let h = Stats.histogram ~bins:4 ~lo:0. ~hi:4. [ 0.5; 1.5; 1.6; 3.9; -1.; 9. ] in
  Alcotest.(check (array int)) "counts" [| 2; 2; 0; 2 |] h;
  Alcotest.check_raises "bins" (Invalid_argument "Stats.histogram: bins must be positive")
    (fun () -> ignore (Stats.histogram ~bins:0 ~lo:0. ~hi:1. []))

let qcheck =
  let open QCheck in
  let samples = list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.) in
  [ Test.make ~name:"cdf is monotone" ~count:200 (pair samples (pair float float))
      (fun (xs, (a, b)) ->
        let c = Stats.cdf_of_samples xs in
        let lo = min a b and hi = max a b in
        Stats.cdf_eval c lo <= Stats.cdf_eval c hi +. 1e-12);
    Test.make ~name:"percentile within range" ~count:200 (pair samples (float_range 0. 100.))
      (fun (xs, p) ->
        let v = Stats.percentile p xs in
        v >= Stats.minimum xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9);
    Test.make ~name:"histogram conserves in-range samples" ~count:200 samples (fun xs ->
        let h = Stats.histogram ~bins:8 ~lo:(-1000.) ~hi:1000.00001 xs in
        Array.fold_left ( + ) 0 h = List.length xs);
    Test.make ~name:"mean bounded by extremes" ~count:200 samples (fun xs ->
        let m = Stats.mean xs in
        m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)
  ]

let tests =
  ( "stats",
    [ tc "mean" `Quick test_mean;
      tc "total" `Quick test_total;
      tc "stddev" `Quick test_stddev;
      tc "min max" `Quick test_min_max;
      tc "percentile" `Quick test_percentile;
      tc "cdf" `Quick test_cdf;
      tc "cdf points" `Quick test_cdf_points;
      tc "histogram" `Quick test_histogram
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
