(* CRC-32, regenerating-code math, and the scrub/quarantine loop. *)

module Crc32 = S3_util.Crc32
module Regenerating = S3_storage.Regenerating
module Store = S3_storage.Store
module Pipeline = S3_storage.Pipeline
module Cluster = S3_storage.Cluster
module T = S3_net.Topology

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

let test_msr_at_d_equals_k_is_mds () =
  (* d = k at the MSR point is classic MDS repair: move the object. *)
  let p = Regenerating.make ~n:9 ~k:6 ~d:6 Regenerating.Msr in
  checkf "alpha = M/k" (1. /. 6.) (Regenerating.node_storage p ~object_size:1.);
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
  checkf "gamma = alpha" (Regenerating.node_storage p ~object_size:1.)
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
        let alpha = Regenerating.node_storage p ~object_size:1. in
        (* Repair moves at least one node's worth and at most the
           whole object; storage at least M/k. *)
        gamma >= alpha -. 1e-9 && gamma <= 1. +. 1e-9 && alpha >= (1. /. float_of_int k) -. 1e-9);
    Test.make ~name:"msr storage optimal, mbr repair cheapest" ~count:300 params
      (fun (n, k, d, _) ->
        let msr = Regenerating.make ~n ~k ~d Regenerating.Msr in
        let mbr = Regenerating.make ~n ~k ~d Regenerating.Mbr in
        Regenerating.node_storage msr ~object_size:1.
        <= Regenerating.node_storage mbr ~object_size:1. +. 1e-9
        && Regenerating.repair_traffic mbr ~object_size:1.
           <= Regenerating.repair_traffic msr ~object_size:1. +. 1e-9)
  ]

(* ---- scrub ---- *)

let test_store_scrub () =
  let s = Store.create ~servers:2 in
  Store.put s ~server:0 ~file:1 ~chunk:0 (Bytes.of_string "good");
  Store.put s ~server:1 ~file:1 ~chunk:1 (Bytes.of_string "soon bad");
  Alcotest.(check (list (triple int int int))) "clean" [] (Store.scrub s);
  Alcotest.(check (option bool)) "ok before" (Some true)
    (Store.checksum_ok s ~server:1 ~file:1 ~chunk:1);
  Store.corrupt s ~server:1 ~file:1 ~chunk:1;
  Alcotest.(check (option bool)) "bad after" (Some false)
    (Store.checksum_ok s ~server:1 ~file:1 ~chunk:1);
  Alcotest.(check (list (triple int int int))) "scrub finds it" [ (1, 1, 1) ] (Store.scrub s);
  Alcotest.(check (option bool)) "absent" None (Store.checksum_ok s ~server:0 ~file:9 ~chunk:9)

let test_pipeline_scrub_and_repair () =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:5 ~cst:500. ~cta:1500. in
  let p = Pipeline.create (Cluster.create topo) in
  let g = S3_util.Prng.create 404 in
  let data = Bytes.init 700 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let info = Pipeline.write_file p g ~n:6 ~k:4 data in
  let id = info.Pipeline.id in
  let meta = Cluster.file (Pipeline.cluster p) id in
  (* Bit rot on chunk 3. *)
  Store.corrupt (Pipeline.store p) ~server:meta.Cluster.locations.(3) ~file:id ~chunk:3;
  Alcotest.(check bool) "deep verify notices" false (Pipeline.verify_file p id);
  (* Scrub quarantines it... *)
  Alcotest.(check (list (pair int int))) "quarantined" [ (id, 3) ] (Pipeline.scrub p);
  Alcotest.(check (list int)) "chunk now lost" [ 3 ]
    (Cluster.lost_chunks (Pipeline.cluster p) id);
  (* ...and a normal repair restores full health. *)
  let sources =
    Cluster.survivors (Pipeline.cluster p) id |> List.map snd
    |> List.filteri (fun i _ -> i < 4)
  in
  let destination = Option.get (Cluster.repair_destination (Pipeline.cluster p) g id) in
  Pipeline.repair p ~file:id ~chunk:3 ~sources ~destination;
  Alcotest.(check bool) "verified clean" true (Pipeline.verify_file p id);
  Alcotest.(check (list (pair int int))) "second scrub clean" [] (Pipeline.scrub p)

(* ---- decode under corruption: corrupt -> detect -> repair ---- *)

let write_fixture ?(n = 9) ?(k = 6) ?(len = 900) ?(seed = 77) () =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:5 ~cst:500. ~cta:1500. in
  let p = Pipeline.create (Cluster.create topo) in
  let g = S3_util.Prng.create seed in
  let data = Bytes.init len (fun i -> Char.chr ((i * 131) land 0xff)) in
  let info = Pipeline.write_file p g ~n ~k data in
  (p, g, data, info.Pipeline.id)

let corrupt_chunk p id chunk =
  let meta = Cluster.file (Pipeline.cluster p) id in
  Store.corrupt (Pipeline.store p) ~server:meta.Cluster.locations.(chunk) ~file:id ~chunk

let repair_all p g id =
  List.iter
    (fun chunk ->
      let sources =
        Cluster.survivors (Pipeline.cluster p) id
        |> List.map snd
        |> List.filteri (fun i _ -> i < 6)
      in
      let destination = Option.get (Cluster.repair_destination (Pipeline.cluster p) g id) in
      Pipeline.repair p ~file:id ~chunk ~sources ~destination)
    (Cluster.lost_chunks (Pipeline.cluster p) id)

let test_decode_under_corruption () =
  (* Bit rot inside the decode subset: the decoder has no idea and
     hands back wrong bytes — only the CRC pass catches it. Quarantine
     routes the read around the rotten shard, repair restores health. *)
  let p, g, data, id = write_fixture () in
  corrupt_chunk p id 0;
  Alcotest.(check bool) "decode is silently wrong" false
    (Bytes.equal (Pipeline.read_file p id) data);
  Alcotest.(check (option bool)) "crc32 detects the flip" (Some false)
    (Store.checksum_ok (Pipeline.store p)
       ~server:(Cluster.file (Pipeline.cluster p) id).Cluster.locations.(0) ~file:id ~chunk:0);
  Alcotest.(check bool) "deep verify fails" false (Pipeline.verify_file p id);
  Alcotest.(check (list (pair int int))) "scrub quarantines it" [ (id, 0) ] (Pipeline.scrub p);
  Alcotest.(check bytes) "read is correct again" data (Pipeline.read_file p id);
  repair_all p g id;
  Alcotest.(check bool) "repair restores full health" true (Pipeline.verify_file p id);
  Alcotest.(check bytes) "object intact" data (Pipeline.read_file p id)

let test_parity_corruption_missed_by_decode () =
  (* Rot in a parity shard never touches a default read, but the deep
     verify and the scrub still find and heal it. *)
  let p, g, data, id = write_fixture () in
  corrupt_chunk p id 8;
  Alcotest.(check bytes) "read unaffected" data (Pipeline.read_file p id);
  Alcotest.(check bool) "verify still fails" false (Pipeline.verify_file p id);
  Alcotest.(check (list (pair int int))) "quarantined" [ (id, 8) ] (Pipeline.scrub p);
  repair_all p g id;
  Alcotest.(check bool) "healed" true (Pipeline.verify_file p id)

let test_corruption_to_the_decode_limit () =
  (* n - k = 3 rotten shards of a (9,6) file are survivable; a fourth
     pushes the file below k and the read must refuse, not fabricate. *)
  let p, g, data, id = write_fixture () in
  List.iter (corrupt_chunk p id) [ 0; 4; 8 ];
  Alcotest.(check int) "all three quarantined" 3 (List.length (Pipeline.scrub p));
  Alcotest.(check bytes) "exactly k shards still decode" data (Pipeline.read_file p id);
  repair_all p g id;
  Alcotest.(check bool) "fully healed" true (Pipeline.verify_file p id);
  List.iter (corrupt_chunk p id) [ 1; 2; 3; 5 ];
  Alcotest.(check int) "four more quarantined" 4 (List.length (Pipeline.scrub p));
  Alcotest.check_raises "below k the read refuses"
    (Failure "Pipeline.read_file: unrecoverable (fewer than k shards)") (fun () ->
      ignore (Pipeline.read_file p id))

let qcheck_corruption =
  let open QCheck in
  [ Test.make ~name:"random rot up to n-k is always detected and healed" ~count:50
      (pair (int_range 0 10_000) (int_range 1 3))
      (fun (seed, rotten) ->
        let p, g, data, id = write_fixture ~seed () in
        let gc = S3_util.Prng.create (seed + 1) in
        let victims = S3_util.Prng.sample gc rotten [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] in
        List.iter (corrupt_chunk p id) victims;
        let quarantined = Pipeline.scrub p in
        List.length quarantined = rotten
        && Bytes.equal (Pipeline.read_file p id) data
        && begin
             repair_all p g id;
             Pipeline.verify_file p id && Bytes.equal (Pipeline.read_file p id) data
           end)
  ]

let tests =
  ( "integrity",
    [ tc "crc known vectors" `Quick test_crc_known_vectors;
      tc "crc detects change" `Quick test_crc_detects_change;
      tc "msr at d=k is mds" `Quick test_msr_at_d_equals_k_is_mds;
      tc "msr savings grow with d" `Quick test_msr_savings_grow_with_d;
      tc "mbr storage equals repair" `Quick test_mbr_storage_equals_repair;
      tc "regenerating validation" `Quick test_regenerating_validation;
      tc "store scrub" `Quick test_store_scrub;
      tc "pipeline scrub and repair" `Quick test_pipeline_scrub_and_repair;
      tc "decode under corruption" `Quick test_decode_under_corruption;
      tc "parity corruption" `Quick test_parity_corruption_missed_by_decode;
      tc "corruption to the decode limit" `Quick test_corruption_to_the_decode_limit
    ]
    @ List.map QCheck_alcotest.to_alcotest (qcheck_regenerating @ qcheck_corruption) )
