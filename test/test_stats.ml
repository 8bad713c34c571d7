module Stats = S3_util.Stats

let tc = Alcotest.test_case
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let test_mean () =
  checkf "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  checkf "empty mean" 0. (Stats.mean [])

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

let qcheck =
  let open QCheck in
  let samples = list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.) in
  [ Test.make ~name:"percentile within range" ~count:200 (pair samples (float_range 0. 100.))
      (fun (xs, p) ->
        let v = Stats.percentile p xs in
        v >= Stats.minimum xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9);
    Test.make ~name:"mean bounded by extremes" ~count:200 samples (fun xs ->
        let m = Stats.mean xs in
        m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)
  ]

let tests =
  ( "stats",
    [ tc "mean" `Quick test_mean;
      tc "stddev" `Quick test_stddev;
      tc "min max" `Quick test_min_max;
      tc "percentile" `Quick test_percentile
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
