module T = S3_net.Topology

let tc = Alcotest.test_case

let two_tier () = T.two_tier ~racks:3 ~servers_per_rack:4 ~cst:500. ~cta:1500.

let test_two_tier_shape () =
  let t = two_tier () in
  Alcotest.(check int) "servers" 12 (T.servers t);
  Alcotest.(check int) "racks" 3 (T.racks t);
  Alcotest.(check int) "entities" 15 (Array.length (T.entities t));
  Alcotest.(check int) "rack of 0" 0 (T.rack_of t 0);
  Alcotest.(check int) "rack of 11" 2 (T.rack_of t 11);
  Alcotest.(check (list int)) "rack members" [ 4; 5; 6; 7 ] (T.servers_in_rack t 1)

let test_two_tier_routes () =
  let t = two_tier () in
  (* Intra-rack: just the two NICs. *)
  let intra = T.route t ~src:0 ~dst:1 in
  Alcotest.(check int) "intra length" 2 (List.length intra);
  List.iter
    (fun e -> Alcotest.(check bool) "intra is servers" true ((T.entity t e).T.kind = T.Server_nic))
    intra;
  (* Cross-rack: NICs plus both TOR uplinks. *)
  let cross = T.route t ~src:0 ~dst:11 in
  Alcotest.(check int) "cross length" 4 (List.length cross);
  let kinds = List.map (fun e -> (T.entity t e).T.kind) cross in
  Alcotest.(check int) "two tor uplinks" 2
    (List.length (List.filter (fun k -> k = T.Tor_uplink) kinds));
  (* Self route is empty. *)
  Alcotest.(check (list int)) "self" [] (T.route t ~src:5 ~dst:5)

let test_two_tier_capacities () =
  let t = two_tier () in
  Alcotest.(check (float 1e-9)) "server nic" 500. (T.entity t (T.server_entity t 3)).T.capacity;
  Alcotest.(check (list (float 1e-9))) "intra route at NIC capacity" [ 500.; 500. ]
    (List.map (fun e -> (T.entity t e).T.capacity) (T.route t ~src:0 ~dst:1))

let test_two_tier_validation () =
  Alcotest.check_raises "bad sizes" (Invalid_argument "Topology.two_tier: sizes") (fun () ->
      ignore (T.two_tier ~racks:0 ~servers_per_rack:4 ~cst:1. ~cta:1.));
  Alcotest.check_raises "bad caps" (Invalid_argument "Topology.two_tier: capacities")
    (fun () -> ignore (T.two_tier ~racks:1 ~servers_per_rack:1 ~cst:0. ~cta:1.));
  let t = two_tier () in
  Alcotest.check_raises "bad server" (Invalid_argument "Topology.route: server 40 out of range")
    (fun () -> ignore (T.route t ~src:40 ~dst:0))

let test_fat_tree_shape () =
  let t = T.fat_tree ~k:4 ~cst:100. ~cta:400. in
  Alcotest.(check int) "servers" 16 (T.servers t);
  Alcotest.(check int) "pods" 4 (T.racks t);
  (* 16 NICs + 8 edge + 8 agg + 4 core. *)
  Alcotest.(check int) "entities" 36 (Array.length (T.entities t));
  Alcotest.check_raises "odd k" (Invalid_argument "Topology.fat_tree: k must be even, >= 2")
    (fun () -> ignore (T.fat_tree ~k:3 ~cst:1. ~cta:1.))

let test_fat_tree_routes () =
  let t = T.fat_tree ~k:4 ~cst:100. ~cta:400. in
  (* Same edge switch (servers 0 and 1): src, edge, dst. *)
  Alcotest.(check int) "same edge" 3 (List.length (T.route t ~src:0 ~dst:1));
  (* Same pod, different edge (0 and 2): via one aggregation switch. *)
  Alcotest.(check int) "same pod" 5 (List.length (T.route t ~src:0 ~dst:2));
  (* Cross pod: via core. *)
  let cross = T.route t ~src:0 ~dst:15 in
  Alcotest.(check int) "cross pod" 7 (List.length cross);
  Alcotest.(check int) "one core hop" 1
    (List.length
       (List.filter (fun e -> (T.entity t e).T.kind = T.Core_switch) cross));
  (* Deterministic: same pair, same route. *)
  Alcotest.(check (list int)) "deterministic" cross (T.route t ~src:0 ~dst:15)

let test_bcube_shape () =
  let t = T.bcube ~ports:3 ~levels:2 ~cst:100. ~cta:300. in
  Alcotest.(check int) "servers" 9 (T.servers t);
  (* 9 NICs + 2 levels x 3 switches. *)
  Alcotest.(check int) "entities" 15 (Array.length (T.entities t))

let test_bcube_routes () =
  let t = T.bcube ~ports:3 ~levels:2 ~cst:100. ~cta:300. in
  (* Same level-0 group (digits differ only at position 0): one switch hop. *)
  let near = T.route t ~src:0 ~dst:1 in
  Alcotest.(check int) "one-digit route" 3 (List.length near);
  (* Both digits differ: server-switch-server-switch-server. *)
  let far = T.route t ~src:0 ~dst:4 in
  Alcotest.(check int) "two-digit route" 5 (List.length far);
  let kinds = List.map (fun e -> (T.entity t e).T.kind) far in
  Alcotest.(check int) "switch hops" 2
    (List.length (List.filter (fun k -> k = T.Bcube_switch) kinds));
  Alcotest.(check int) "server hops" 3
    (List.length (List.filter (fun k -> k = T.Server_nic) kinds))

let test_leaf_spine_shape () =
  let t = T.leaf_spine ~leaves:4 ~spines:2 ~servers_per_leaf:5 ~cst:100. ~cta:400. in
  Alcotest.(check int) "servers" 20 (T.servers t);
  Alcotest.(check int) "leaves as failure domains" 4 (T.racks t);
  (* 20 NICs + 4 leaves + 2 spines. *)
  Alcotest.(check int) "entities" 26 (Array.length (T.entities t));
  Alcotest.check_raises "sizes" (Invalid_argument "Topology.leaf_spine: sizes") (fun () ->
      ignore (T.leaf_spine ~leaves:0 ~spines:1 ~servers_per_leaf:1 ~cst:1. ~cta:1.))

let test_leaf_spine_routes () =
  let t = T.leaf_spine ~leaves:4 ~spines:2 ~servers_per_leaf:5 ~cst:100. ~cta:400. in
  (* Intra-leaf: NICs plus the leaf switch. *)
  let intra = T.route t ~src:0 ~dst:1 in
  Alcotest.(check int) "intra length" 3 (List.length intra);
  (* Cross-leaf: via exactly one spine. *)
  let cross = T.route t ~src:0 ~dst:19 in
  Alcotest.(check int) "cross length" 5 (List.length cross);
  Alcotest.(check int) "one spine" 1
    (List.length
       (List.filter (fun e -> (T.entity t e).T.kind = T.Spine_switch) cross));
  Alcotest.(check int) "two leaves" 2
    (List.length
       (List.filter (fun e -> (T.entity t e).T.kind = T.Leaf_switch) cross));
  Alcotest.(check (list int)) "deterministic" cross (T.route t ~src:0 ~dst:19)

let test_routes_start_end_at_endpoints () =
  List.iter
    (fun t ->
      let n = T.servers t in
      for _ = 1 to 50 do
        let src = Random.int n and dst = Random.int n in
        if src <> dst then begin
          match T.route t ~src ~dst with
          | [] -> Alcotest.fail "empty route between distinct servers"
          | ids ->
            Alcotest.(check int) "starts at src" (T.server_entity t src) (List.hd ids);
            Alcotest.(check int) "ends at dst" (T.server_entity t dst)
              (List.nth ids (List.length ids - 1));
            List.iter
              (fun e ->
                Alcotest.(check bool) "entity id valid" true
                  (e >= 0 && e < Array.length (T.entities t)))
              ids
        end
      done)
    [ two_tier ();
      T.fat_tree ~k:4 ~cst:100. ~cta:400.;
      T.bcube ~ports:3 ~levels:3 ~cst:100. ~cta:300.;
      T.leaf_spine ~leaves:3 ~spines:2 ~servers_per_leaf:4 ~cst:100. ~cta:400.
    ]

let test_rack_partition () =
  List.iter
    (fun t ->
      let total =
        List.init (T.racks t) (fun r -> List.length (T.servers_in_rack t r))
        |> List.fold_left ( + ) 0
      in
      Alcotest.(check int) "racks partition servers" (T.servers t) total)
    [ two_tier ();
      T.fat_tree ~k:4 ~cst:1. ~cta:1.;
      T.bcube ~ports:4 ~levels:2 ~cst:1. ~cta:1.;
      T.leaf_spine ~leaves:3 ~spines:2 ~servers_per_leaf:4 ~cst:1. ~cta:1.
    ]

let tests =
  ( "topology",
    [ tc "two-tier shape" `Quick test_two_tier_shape;
      tc "two-tier routes" `Quick test_two_tier_routes;
      tc "two-tier capacities" `Quick test_two_tier_capacities;
      tc "two-tier validation" `Quick test_two_tier_validation;
      tc "fat-tree shape" `Quick test_fat_tree_shape;
      tc "fat-tree routes" `Quick test_fat_tree_routes;
      tc "leaf-spine shape" `Quick test_leaf_spine_shape;
      tc "leaf-spine routes" `Quick test_leaf_spine_routes;
      tc "bcube shape" `Quick test_bcube_shape;
      tc "bcube routes" `Quick test_bcube_routes;
      tc "routes start/end at endpoints" `Quick test_routes_start_end_at_endpoints;
      tc "racks partition servers" `Quick test_rack_partition
    ] )
