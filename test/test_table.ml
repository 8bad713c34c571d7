module Table = S3_util.Table

let tc = Alcotest.test_case

let test_render () =
  let out = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "10"; "200" ] ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "lines" 4 (List.length lines);
  Alcotest.(check string) "header right-aligned" " a   bb" (List.nth lines 0);
  Alcotest.(check string) "rule" "--  ---" (List.nth lines 1);
  Alcotest.(check string) "row" "10  200" (List.nth lines 3)

let test_left_align () =
  let out = Table.render ~align:[ Table.Left; Table.Right ] ~header:[ "name"; "v" ]
      [ [ "x"; "10" ] ]
  in
  Alcotest.(check string) "left pads right" "x     10"
    (List.nth (String.split_on_char '\n' out) 2)

let test_arity_mismatch () =
  Alcotest.check_raises "row arity" (Invalid_argument "Table.render: row arity mismatch")
    (fun () -> ignore (Table.render ~header:[ "a" ] [ [ "1"; "2" ] ]));
  Alcotest.check_raises "align arity" (Invalid_argument "Table.render: align arity mismatch")
    (fun () -> ignore (Table.render ~align:[ Table.Left ] ~header:[ "a"; "b" ] []))

let test_formats () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1416" (Table.fmt_float ~decimals:4 3.14159);
  Alcotest.(check string) "pct" "12.8%" (Table.fmt_pct 0.128);
  (* A huge value prints in exponent form, not as hundreds of digits. *)
  Alcotest.(check string) "float huge" "3.5e+305" (Table.fmt_float ~decimals:1 3.54e305);
  Alcotest.(check string) "float huge negative" "-1.00e+15" (Table.fmt_float (-1e15));
  Alcotest.(check string) "float below the cut" "999999999999999.00"
    (Table.fmt_float 999999999999999.)

let tests =
  ( "table",
    [ tc "render" `Quick test_render;
      tc "left align" `Quick test_left_align;
      tc "arity mismatch" `Quick test_arity_mismatch;
      tc "formats" `Quick test_formats
    ] )
