module Gf = S3_storage.Gf256

let tc = Alcotest.test_case

let test_identities () =
  for a = 0 to 255 do
    Alcotest.(check int) "a + 0 = a" a (Gf.add a 0);
    Alcotest.(check int) "a * 1 = a" a (Gf.mul a 1);
    Alcotest.(check int) "a * 0 = 0" 0 (Gf.mul a 0);
    Alcotest.(check int) "a + a = 0" 0 (Gf.add a a)
  done

let test_inverses () =
  for a = 1 to 255 do
    Alcotest.(check int) "a * a^-1 = 1" 1 (Gf.mul a (Gf.inv a))
  done

let test_division_by_zero () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Gf.inv 0))

let test_pow () =
  Alcotest.(check int) "a^0" 1 (Gf.pow 7 0);
  Alcotest.(check int) "0^0" 1 (Gf.pow 0 0);
  Alcotest.(check int) "0^5" 0 (Gf.pow 0 5);
  Alcotest.(check int) "a^1" 7 (Gf.pow 7 1);
  Alcotest.(check int) "a^2 = a*a" (Gf.mul 7 7) (Gf.pow 7 2);
  Alcotest.(check int) "a^255 = 1" 1 (Gf.pow 7 255);
  Alcotest.check_raises "negative" (Invalid_argument "Gf256.pow: negative exponent")
    (fun () -> ignore (Gf.pow 2 (-1)))

let test_check () =
  Gf.check 0;
  Gf.check 255;
  Alcotest.check_raises "256" (Invalid_argument "Gf256: element out of range") (fun () ->
      Gf.check 256)

let elt = QCheck.int_range 0 255

let qcheck =
  let open QCheck in
  [ Test.make ~name:"addition commutes" ~count:500 (pair elt elt) (fun (a, b) ->
        Gf.add a b = Gf.add b a);
    Test.make ~name:"multiplication commutes" ~count:500 (pair elt elt) (fun (a, b) ->
        Gf.mul a b = Gf.mul b a);
    Test.make ~name:"multiplication associates" ~count:500 (triple elt elt elt)
      (fun (a, b, c) -> Gf.mul a (Gf.mul b c) = Gf.mul (Gf.mul a b) c);
    Test.make ~name:"addition associates" ~count:500 (triple elt elt elt) (fun (a, b, c) ->
        Gf.add a (Gf.add b c) = Gf.add (Gf.add a b) c);
    Test.make ~name:"distributivity" ~count:500 (triple elt elt elt) (fun (a, b, c) ->
        Gf.mul a (Gf.add b c) = Gf.add (Gf.mul a b) (Gf.mul a c));
    Test.make ~name:"division inverts multiplication" ~count:500
      (pair elt (int_range 1 255))
      (fun (a, b) -> Gf.mul (Gf.mul a b) (Gf.inv b) = a);
    Test.make ~name:"pow adds exponents" ~count:500
      (triple (int_range 1 255) (int_range 0 40) (int_range 0 40))
      (fun (a, e1, e2) -> Gf.mul (Gf.pow a e1) (Gf.pow a e2) = Gf.pow a (e1 + e2));
    Test.make ~name:"results stay in field" ~count:500 (pair elt elt) (fun (a, b) ->
        let m = Gf.mul a b and s = Gf.add a b in
        m >= 0 && m <= 255 && s >= 0 && s <= 255)
  ]

let tests =
  ( "gf256",
    [ tc "identities" `Quick test_identities;
      tc "inverses" `Quick test_inverses;
      tc "division by zero" `Quick test_division_by_zero;
      tc "pow" `Quick test_pow;
      tc "check" `Quick test_check
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
