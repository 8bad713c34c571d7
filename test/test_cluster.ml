module C = S3_storage.Cluster
module T = S3_net.Topology
module Prng = S3_util.Prng

let tc = Alcotest.test_case

let make () =
  let topo = T.two_tier ~racks:3 ~servers_per_rack:5 ~cst:1. ~cta:1. in
  (C.create topo, Prng.create 31)

let test_add_file () =
  let c, g = make () in
  let id = C.add_file c g ~n:9 ~k:6 ~chunk_volume:512. () in
  let f = C.file c id in
  Alcotest.(check int) "n" 9 f.C.n;
  Alcotest.(check int) "k" 6 f.C.k;
  let locs = Array.to_list f.C.locations in
  Alcotest.(check int) "distinct" 9 (List.length (List.sort_uniq compare locs));
  Alcotest.(check (list int)) "every chunk survives" (List.init 9 Fun.id)
    (List.map fst (C.survivors c id))

let test_ids_monotonic () =
  let c, g = make () in
  let a = C.add_file c g ~n:3 ~k:2 ~chunk_volume:1. () in
  let b = C.add_file c g ~n:3 ~k:2 ~chunk_volume:1. () in
  Alcotest.(check bool) "increasing" true (b > a);
  Alcotest.(check (pair int int)) "both listed" (a, b) ((C.file c a).C.id, (C.file c b).C.id)

let test_fail_and_survivors () =
  let c, g = make () in
  let id = C.add_file c g ~n:9 ~k:6 ~chunk_volume:512. () in
  let f = C.file c id in
  let victim = f.C.locations.(0) in
  let lost = C.fail_server c victim in
  Alcotest.(check bool) "chunk reported lost" true (List.mem (id, 0) lost);
  Alcotest.check_raises "server dead: 14 alive"
    (Invalid_argument "Cluster.add_file: not enough alive servers") (fun () ->
      ignore (C.add_file c g ~n:15 ~k:1 ~chunk_volume:1. ()));
  Alcotest.(check (list int)) "every chunk but the lost one survives" (List.init 8 succ)
    (List.map fst (C.survivors c id));
  Alcotest.(check (list (pair int int))) "double fail is empty" [] (C.fail_server c victim)

let test_repair_destination () =
  let c, g = make () in
  let id = C.add_file c g ~n:9 ~k:6 ~chunk_volume:512. () in
  let f = C.file c id in
  (* Fail one server outside the stripe: it must never be chosen. *)
  let dead = List.find (fun s -> not (Array.mem s f.C.locations)) (List.init 15 Fun.id) in
  ignore (C.fail_server c dead);
  for _ = 1 to 20 do
    match C.repair_destination c g id with
    | None -> Alcotest.fail "destination expected"
    | Some d ->
      Alcotest.(check bool) "alive" true (d <> dead);
      Alcotest.(check bool) "holds no chunk" false (Array.exists (fun s -> s = d) f.C.locations)
  done

let test_revive () =
  let c, g = make () in
  let id = C.add_file c g ~n:9 ~k:6 ~chunk_volume:512. () in
  let f = C.file c id in
  let victim = f.C.locations.(0) in
  ignore (C.fail_server c victim);
  C.revive_server c victim;
  (* Old chunk stays lost until repaired. *)
  Alcotest.(check (list int)) "still lost" (List.init 8 succ) (List.map fst (C.survivors c id));
  (* Alive again: a file as wide as the cluster places a chunk on it. *)
  let wide = C.add_file c g ~n:15 ~k:1 ~chunk_volume:1. () in
  Alcotest.(check bool) "alive again" true
    (List.exists (fun (_, s) -> s = victim) (C.survivors c wide))

let test_chunks_on () =
  let c, g = make () in
  let id = C.add_file c g ~n:9 ~k:6 ~chunk_volume:512. () in
  let f = C.file c id in
  let s = f.C.locations.(4) in
  (* A server's chunks are exactly what its failure loses. *)
  Alcotest.(check bool) "chunk listed" true (List.mem (id, 4) (C.fail_server c s))

let test_total_volume () =
  let c, g = make () in
  let id = C.add_file c g ~n:9 ~k:6 ~chunk_volume:512. () in
  Alcotest.(check (float 1e-9)) "full" (9. *. 512.) (C.total_stored_volume c);
  let f = C.file c id in
  ignore (C.fail_server c f.C.locations.(0));
  Alcotest.(check (float 1e-9)) "after failure" (8. *. 512.) (C.total_stored_volume c)

let test_validation () =
  let c, g = make () in
  Alcotest.check_raises "bad code" (Invalid_argument "Cluster.add_file: need 0 < k <= n")
    (fun () -> ignore (C.add_file c g ~n:2 ~k:3 ~chunk_volume:1. ()));
  Alcotest.check_raises "too many" (Invalid_argument "Cluster.add_file: not enough alive servers")
    (fun () -> ignore (C.add_file c g ~n:16 ~k:2 ~chunk_volume:1. ()));
  Alcotest.check_raises "bad volume"
    (Invalid_argument "Cluster.add_file: chunk_volume must be positive") (fun () ->
      ignore (C.add_file c g ~n:3 ~k:2 ~chunk_volume:0. ()))

let test_placement_avoids_dead_servers () =
  let c, g = make () in
  ignore (C.fail_server c 0);
  ignore (C.fail_server c 1);
  for _ = 1 to 20 do
    let id = C.add_file c g ~n:9 ~k:6 ~chunk_volume:1. () in
    Array.iter
      (fun s -> Alcotest.(check bool) "on live server" true (s <> 0 && s <> 1))
      (C.file c id).C.locations
  done

let tests =
  ( "cluster",
    [ tc "add file" `Quick test_add_file;
      tc "ids monotonic" `Quick test_ids_monotonic;
      tc "fail and survivors" `Quick test_fail_and_survivors;
      tc "repair destination" `Quick test_repair_destination;
      tc "revive" `Quick test_revive;
      tc "chunks on server" `Quick test_chunks_on;
      tc "total volume" `Quick test_total_volume;
      tc "validation" `Quick test_validation;
      tc "placement avoids dead servers" `Quick test_placement_avoids_dead_servers
    ] )
