(* Store + pipeline: the storage data plane end to end. *)

module Store = S3_storage.Store
module Pipeline = S3_storage.Pipeline
module Cluster = S3_storage.Cluster
module T = S3_net.Topology
module Prng = S3_util.Prng

let tc = Alcotest.test_case

let topo = T.two_tier ~racks:3 ~servers_per_rack:5 ~cst:500. ~cta:1500.

let fresh () = (Pipeline.create (Cluster.create topo), Prng.create 101)

let payload n = Bytes.init n (fun i -> Char.chr ((i * 37) land 0xff))

(* Kill a server the way a dead disk does: its blobs go, and the
   metadata marks its chunks lost. Returns the lost (file, chunk)
   pairs. *)
let fail_server p server =
  ignore (Store.wipe_server (Pipeline.store p) server);
  Cluster.fail_server (Pipeline.cluster p) server

(* ---- Store ---- *)

let test_store_basics () =
  let s = Store.create ~servers:3 in
  Alcotest.(check (option bytes)) "absent" None (Store.borrow s ~server:0 ~file:1 ~chunk:2);
  Store.put s ~server:0 ~file:1 ~chunk:2 (Bytes.of_string "abc");
  Alcotest.(check (option bytes)) "present" (Some (Bytes.of_string "abc"))
    (Store.borrow s ~server:0 ~file:1 ~chunk:2);
  Alcotest.(check (option bytes)) "other server" None (Store.borrow s ~server:1 ~file:1 ~chunk:2);
  Store.delete s ~server:0 ~file:1 ~chunk:2;
  Alcotest.(check (option bytes)) "deleted" None (Store.borrow s ~server:0 ~file:1 ~chunk:2)

let test_store_isolation () =
  let s = Store.create ~servers:3 in
  Store.put s ~server:0 ~file:1 ~chunk:0 (Bytes.of_string "a");
  Store.put s ~server:1 ~file:1 ~chunk:1 (Bytes.of_string "b");
  Alcotest.(check int) "wipe loses only own shards" 1 (Store.wipe_server s 0);
  Alcotest.(check (option bytes)) "other survives" (Some (Bytes.of_string "b"))
    (Store.borrow s ~server:1 ~file:1 ~chunk:1)

let test_store_copies () =
  (* The store must not alias caller buffers. *)
  let s = Store.create ~servers:1 in
  let blob = Bytes.of_string "mutable" in
  Store.put s ~server:0 ~file:0 ~chunk:0 blob;
  Bytes.set blob 0 'X';
  Alcotest.(check (option bytes)) "insulated from caller writes"
    (Some (Bytes.of_string "mutable"))
    (Store.borrow s ~server:0 ~file:0 ~chunk:0)

let test_store_validation () =
  let s = Store.create ~servers:2 in
  Alcotest.check_raises "server range" (Invalid_argument "Store: server out of range")
    (fun () -> Store.put s ~server:5 ~file:0 ~chunk:0 Bytes.empty);
  Alcotest.check_raises "create" (Invalid_argument "Store.create: servers must be positive")
    (fun () -> ignore (Store.create ~servers:0))

(* ---- Pipeline ---- *)

let test_write_read () =
  let p, g = fresh () in
  let data = payload 300 in
  let info = Pipeline.write_file p g ~n:9 ~k:6 data in
  Alcotest.(check int) "length recorded" 300 info.Pipeline.length;
  Alcotest.(check bytes) "read back" data (Pipeline.read_file p info.Pipeline.id);
  let locations = (Cluster.file (Pipeline.cluster p) info.Pipeline.id).Cluster.locations in
  Alcotest.(check bool) "9 shards stored" true
    (Array.length locations = 9
    && Array.for_all Fun.id
         (Array.mapi
            (fun chunk server ->
              Store.borrow (Pipeline.store p) ~server ~file:info.Pipeline.id ~chunk <> None)
            locations));
  Alcotest.(check bool) "scrub passes" true (Pipeline.verify_file p info.Pipeline.id)

let test_read_survives_failures () =
  let p, g = fresh () in
  let data = payload 128 in
  let info = Pipeline.write_file p g ~n:9 ~k:6 data in
  let locations = (Cluster.file (Pipeline.cluster p) info.Pipeline.id).Cluster.locations in
  (* Lose n - k = 3 servers: still readable. *)
  List.iter
    (fun i -> ignore (fail_server p locations.(i)))
    [ 0; 3; 7 ];
  Alcotest.(check bytes) "read despite 3 losses" data (Pipeline.read_file p info.Pipeline.id);
  (* A fourth loss makes it unrecoverable. *)
  ignore (fail_server p locations.(1));
  Alcotest.check_raises "data loss"
    (Failure "Pipeline.read_file: unrecoverable (fewer than k shards)") (fun () ->
      ignore (Pipeline.read_file p info.Pipeline.id))

let test_repair_restores_bytes () =
  let p, g = fresh () in
  let data = payload 500 in
  let info = Pipeline.write_file p g ~n:6 ~k:4 data in
  let id = info.Pipeline.id in
  let locations = (Cluster.file (Pipeline.cluster p) id).Cluster.locations in
  let victim = locations.(2) in
  let lost = fail_server p victim in
  Alcotest.(check (list (pair int int))) "chunk 2 lost" [ (id, 2) ] lost;
  (* Schedule-equivalent: pick 4 live sources and a destination. *)
  let sources =
    Cluster.survivors (Pipeline.cluster p) id |> List.map snd
    |> List.filteri (fun i _ -> i < 4)
  in
  let destination =
    Option.get (Cluster.repair_destination (Pipeline.cluster p) g id)
  in
  Pipeline.repair p ~file:id ~chunk:2 ~sources ~destination;
  Alcotest.(check (list int)) "nothing lost" [] (Cluster.lost_chunks (Pipeline.cluster p) id);
  Alcotest.(check bool) "scrub passes after repair" true (Pipeline.verify_file p id);
  Alcotest.(check bytes) "object intact" data (Pipeline.read_file p id)

let test_repair_validation () =
  let p, g = fresh () in
  let info = Pipeline.write_file p g ~n:4 ~k:2 (payload 64) in
  let id = info.Pipeline.id in
  let locations = (Cluster.file (Pipeline.cluster p) id).Cluster.locations in
  Alcotest.check_raises "not lost" (Invalid_argument "Pipeline.repair: chunk is not lost")
    (fun () ->
      Pipeline.repair p ~file:id ~chunk:0
        ~sources:[ locations.(1); locations.(2) ]
        ~destination:14);
  ignore (fail_server p locations.(0));
  Alcotest.check_raises "bad source"
    (Invalid_argument "Pipeline.repair: source holds no live chunk of this file") (fun () ->
      Pipeline.repair p ~file:id ~chunk:0
        ~sources:[ (locations.(1) + 1) mod 15; locations.(2) ]
        ~destination:14);
  Alcotest.check_raises "too few sources"
    (Invalid_argument "Pipeline.repair: fewer than k sources") (fun () ->
      Pipeline.repair p ~file:id ~chunk:0 ~sources:[ locations.(1) ] ~destination:14)

let test_scheduled_repair_end_to_end () =
  (* The full loop: failure -> task generation -> LPST schedule ->
     execute the completed task's source selection on the data plane. *)
  let p, g = fresh () in
  let data = payload 1024 in
  let info = Pipeline.write_file p g ~n:9 ~k:6 data in
  let id = info.Pipeline.id in
  let locations = (Cluster.file (Pipeline.cluster p) id).Cluster.locations in
  let victim = locations.(4) in
  ignore (Store.wipe_server (Pipeline.store p) victim);
  let tasks =
    S3_workload.Generator.repair_tasks_on_failure g (Pipeline.cluster p) ~server:victim
      ~now:0. ~deadline_factor:10. ~first_id:0
  in
  let run = S3_sim.Engine.run topo (S3_core.Registry.make "lpst") tasks in
  Alcotest.(check int) "repair scheduled in time" 1 (S3_sim.Metrics.completed run);
  let outcome = List.hd run.S3_sim.Metrics.outcomes in
  Pipeline.repair p ~file:id ~chunk:4
    ~sources:(Array.to_list outcome.S3_sim.Metrics.sources)
    ~destination:outcome.S3_sim.Metrics.task.S3_workload.Task.destination;
  Alcotest.(check bool) "bytes verified" true (Pipeline.verify_file p id);
  Alcotest.(check bytes) "object intact" data (Pipeline.read_file p id)

(* The metadata records each chunk's volume in megabits; with n = k = 1
   the one shard is the object itself. *)
let test_volume_of_bytes () =
  let chunk_volume bytes =
    let p, g = fresh () in
    let info = Pipeline.write_file p g ~n:1 ~k:1 (payload bytes) in
    (Cluster.file (Pipeline.cluster p) info.Pipeline.id).Cluster.chunk_volume
  in
  Alcotest.(check (float 1e-12)) "mb conversion" 8. (chunk_volume 1_000_000);
  Alcotest.(check bool) "floor for tiny blobs" true (chunk_volume 1 > 0.)

let qcheck =
  let open QCheck in
  [ Test.make ~name:"write/fail/repair cycle preserves every object" ~count:50
      (pair (int_range 1 400) (int_range 0 10000))
      (fun (len, seed) ->
        let p, _ = fresh () in
        let g = Prng.create seed in
        let data = Bytes.init len (fun i -> Char.chr ((i + seed) land 0xff)) in
        let info = Pipeline.write_file p g ~n:6 ~k:4 data in
        let id = info.Pipeline.id in
        let locations = (Cluster.file (Pipeline.cluster p) id).Cluster.locations in
        let chunk = Prng.int g 6 in
        ignore (fail_server p locations.(chunk));
        let sources =
          Cluster.survivors (Pipeline.cluster p) id |> List.map snd
          |> List.filteri (fun i _ -> i < 4)
        in
        match Cluster.repair_destination (Pipeline.cluster p) g id with
        | None -> false
        | Some destination ->
          Pipeline.repair p ~file:id ~chunk ~sources ~destination;
          Pipeline.verify_file p id && Bytes.equal (Pipeline.read_file p id) data)
  ]

let tests =
  ( "pipeline",
    [ tc "store basics" `Quick test_store_basics;
      tc "store isolation" `Quick test_store_isolation;
      tc "store copies" `Quick test_store_copies;
      tc "store validation" `Quick test_store_validation;
      tc "write and read" `Quick test_write_read;
      tc "read survives n-k failures" `Quick test_read_survives_failures;
      tc "repair restores bytes" `Quick test_repair_restores_bytes;
      tc "repair validation" `Quick test_repair_validation;
      tc "scheduled repair end to end" `Quick test_scheduled_repair_end_to_end;
      tc "volume conversion" `Quick test_volume_of_bytes
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
