(* CRC-32 check values and regenerating-code math. *)

module Regenerating = S3_storage.Regenerating

let tc = Alcotest.test_case
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ---- CRC-32 ---- *)

let test_crc_known_vectors () =
  (* Standard IEEE CRC-32 check values. *)
  let digest s = Crc32.digest (Bytes.of_string s) in
  Alcotest.(check int32) "check string" 0xCBF43926l (digest "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest Bytes.empty);
  Alcotest.(check int32) "single a" 0xE8B7BE43l (digest "a")

let test_crc_detects_change () =
  let b = Bytes.of_string "payload" in
  let before = Crc32.digest b in
  Bytes.set b 3 'X';
  Alcotest.(check bool) "changed digest" true (Crc32.digest b <> before)

(* ---- Regenerating codes ---- *)

(* Data stored per node (alpha) at the two corner points of the
   cut-set bound (Dimakis et al. 2010, eqs. (5)-(6)): the oracle the
   repair traffic is checked against. *)
let node_storage (p : Regenerating.params) ~object_size =
  let k = float_of_int p.k and d = float_of_int p.d in
  match p.point with
  | Regenerating.Msr -> object_size /. k
  | Regenerating.Mbr -> 2. *. object_size *. d /. ((2. *. k *. d) -. (k *. k) +. k)

let test_msr_at_d_equals_k_is_mds () =
  (* d = k at the MSR point is classic MDS repair: move the object. *)
  let p = Regenerating.make ~n:9 ~k:6 ~d:6 Regenerating.Msr in
  checkf "alpha = M/k" (1. /. 6.) (node_storage p ~object_size:1.);
  checkf "gamma = M" 1. (Regenerating.repair_traffic p ~object_size:1.);
  checkf "no savings" 0. (Regenerating.repair_savings p)

let test_msr_savings_grow_with_d () =
  let gamma d =
    Regenerating.repair_traffic
      (Regenerating.make ~n:9 ~k:6 ~d Regenerating.Msr)
      ~object_size:1.
  in
  Alcotest.(check bool) "d=7 cheaper than d=6" true (gamma 7 < gamma 6);
  Alcotest.(check bool) "d=8 cheaper than d=7" true (gamma 8 < gamma 7);
  (* MSR with (k, d) = (6, 8): gamma = 8 * 1/(6*3) = 4/9 of the object. *)
  checkf "d=8 value" (8. /. 18.) (gamma 8)

let test_mbr_storage_equals_repair () =
  (* At the MBR point a helper ships exactly what a node stores per
     repair unit: gamma = alpha. *)
  let p = Regenerating.make ~n:10 ~k:5 ~d:9 Regenerating.Mbr in
  checkf "gamma = alpha" (node_storage p ~object_size:1.)
    (Regenerating.repair_traffic p ~object_size:1.);
  Alcotest.(check bool) "mbr repairs cheaper than mds" true
    (Regenerating.repair_traffic p ~object_size:1. < 1.)

let test_regenerating_validation () =
  Alcotest.check_raises "d < k" (Invalid_argument "Regenerating.make: need 0 < k <= d <= n - 1")
    (fun () -> ignore (Regenerating.make ~n:9 ~k:6 ~d:5 Regenerating.Msr));
  Alcotest.check_raises "d = n" (Invalid_argument "Regenerating.make: need 0 < k <= d <= n - 1")
    (fun () -> ignore (Regenerating.make ~n:9 ~k:6 ~d:9 Regenerating.Msr))

let qcheck_regenerating =
  let open QCheck in
  let params =
    make
      Gen.(
        let* k = 1 -- 10 in
        let* d = k -- (k + 5) in
        let* extra = 1 -- 4 in
        let* point = oneofl [ Regenerating.Msr; Regenerating.Mbr ] in
        return (d + extra, k, d, point))
  in
  [ Test.make ~name:"regenerating repair never beats the cut-set floor nor MDS" ~count:300
      params (fun (n, k, d, point) ->
        let p = Regenerating.make ~n ~k ~d point in
        let gamma = Regenerating.repair_traffic p ~object_size:1. in
        let alpha = node_storage p ~object_size:1. in
        (* Repair moves at least one node's worth and at most the
           whole object; storage at least M/k. *)
        gamma >= alpha -. 1e-9 && gamma <= 1. +. 1e-9 && alpha >= (1. /. float_of_int k) -. 1e-9);
    Test.make ~name:"msr storage optimal, mbr repair cheapest" ~count:300 params
      (fun (n, k, d, _) ->
        let msr = Regenerating.make ~n ~k ~d Regenerating.Msr in
        let mbr = Regenerating.make ~n ~k ~d Regenerating.Mbr in
        node_storage msr ~object_size:1.
        <= node_storage mbr ~object_size:1. +. 1e-9
        && Regenerating.repair_traffic mbr ~object_size:1.
           <= Regenerating.repair_traffic msr ~object_size:1. +. 1e-9)
  ]

let tests =
  ( "integrity",
    [ tc "crc known vectors" `Quick test_crc_known_vectors;
      tc "crc detects change" `Quick test_crc_detects_change;
      tc "msr at d=k is mds" `Quick test_msr_at_d_equals_k_is_mds;
      tc "msr savings grow with d" `Quick test_msr_savings_grow_with_d;
      tc "mbr storage equals repair" `Quick test_mbr_storage_equals_repair;
      tc "regenerating validation" `Quick test_regenerating_validation
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck_regenerating )
