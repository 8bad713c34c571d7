module Rs = S3_storage.Reed_solomon
module Prng = S3_util.Prng

let tc = Alcotest.test_case

let random_bytes g n = Bytes.init n (fun _ -> Char.chr (Prng.int g 256))

let indexed shards = Array.to_list (Array.mapi (fun i s -> (i, s)) shards)

(* The object: the decoded shards without the encoder's zero padding. *)
let decode_to length c shards = Bytes.sub (Rs.decode c shards) 0 length

let test_roundtrip_simple () =
  let c = Rs.make ~n:9 ~k:6 in
  let data = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let shards = Rs.encode c data in
  Alcotest.(check int) "n shards" 9 (Array.length shards);
  (* Decode from the data shards themselves. *)
  let first6 = List.filteri (fun i _ -> i < 6) (indexed shards) in
  Alcotest.(check bytes) "identity subset" data
    (decode_to (Bytes.length data) c first6);
  (* Decode from a parity-heavy subset. *)
  let subset = List.filteri (fun i _ -> i >= 3) (indexed shards) in
  Alcotest.(check bytes) "parity subset" data
    (decode_to (Bytes.length data) c subset)

let test_reconstruct_each_index () =
  let g = Prng.create 5 in
  let c = Rs.make ~n:6 ~k:4 in
  let data = random_bytes g 57 in
  let shards = Rs.encode c data in
  for lost = 0 to 5 do
    let survivors = List.filter (fun (i, _) -> i <> lost) (indexed shards) in
    let rebuilt = Rs.reconstruct c ~index:lost survivors in
    Alcotest.(check bytes) (Printf.sprintf "rebuild %d" lost) shards.(lost) rebuilt
  done

let test_reconstruct_present () =
  let c = Rs.make ~n:4 ~k:2 in
  let shards = Rs.encode c (Bytes.of_string "hello") in
  let got = Rs.reconstruct c ~index:1 (indexed shards) in
  Alcotest.(check bytes) "present shard returned" shards.(1) got

let test_trivial_code () =
  (* n = k: pure striping, no parity. *)
  let c = Rs.make ~n:4 ~k:4 in
  let data = Bytes.of_string "0123456789ab" in
  let shards = Rs.encode c data in
  Alcotest.(check bytes) "roundtrip" data
    (decode_to (Bytes.length data) c (indexed shards))

let test_replication_shape () =
  (* k = 1 behaves like replication: every shard alone rebuilds. *)
  let c = Rs.make ~n:3 ~k:1 in
  let data = Bytes.of_string "replica" in
  let shards = Rs.encode c data in
  for i = 0 to 2 do
    Alcotest.(check bytes) "single-shard decode" data
      (decode_to (Bytes.length data) c [ (i, shards.(i)) ])
  done

let test_empty_data () =
  let c = Rs.make ~n:5 ~k:3 in
  let shards = Rs.encode c Bytes.empty in
  Alcotest.(check int) "min shard length" 1 (Bytes.length shards.(0));
  Alcotest.(check bytes) "empty roundtrip" Bytes.empty
    (decode_to 0 c (indexed shards))

let test_validation () =
  Alcotest.check_raises "bad params"
    (Invalid_argument "Reed_solomon.make: need 0 < k <= n <= 256") (fun () ->
      ignore (Rs.make ~n:2 ~k:3));
  let c = Rs.make ~n:4 ~k:2 in
  let shards = Rs.encode c (Bytes.of_string "xy") in
  Alcotest.check_raises "too few" (Invalid_argument "Reed_solomon: need at least k shards")
    (fun () -> ignore (Rs.decode c [ (0, shards.(0)) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Reed_solomon: duplicate shard index") (fun () ->
      ignore (Rs.decode c [ (0, shards.(0)); (0, shards.(0)) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Reed_solomon: shard index out of range") (fun () ->
      ignore (Rs.decode c [ (7, shards.(0)); (1, shards.(1)) ]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Reed_solomon: shard length mismatch") (fun () ->
      ignore (Rs.decode c [ (0, shards.(0)); (1, Bytes.make 5 'x') ]))

let qcheck =
  let open QCheck in
  let code_gen =
    Gen.(
      let* k = 1 -- 10 in
      let* extra = 0 -- 6 in
      return (k + extra, k))
  in
  let case =
    make
      Gen.(
        let* n, k = code_gen in
        let* len = 0 -- 200 in
        let* seed = 0 -- 10000 in
        return (n, k, len, seed))
  in
  [ Test.make ~name:"decode of any k-subset recovers the object" ~count:150 case
      (fun (n, k, len, seed) ->
        let g = Prng.create seed in
        let c = Rs.make ~n ~k in
        let data = random_bytes g len in
        let shards = Rs.encode c data in
        let subset = Prng.sample g k (indexed shards) in
        Bytes.equal (decode_to len c subset) data);
    Test.make ~name:"reconstruct from random k-subset matches original shard" ~count:150
      case (fun (n, k, len, seed) ->
        let g = Prng.create seed in
        let c = Rs.make ~n ~k in
        let data = random_bytes g (max len 1) in
        let shards = Rs.encode c data in
        let lost = Prng.int g n in
        let survivors = List.filter (fun (i, _) -> i <> lost) (indexed shards) in
        if List.length survivors < k then true
        else begin
          let subset = Prng.sample g k survivors in
          Bytes.equal (Rs.reconstruct c ~index:lost subset) shards.(lost)
        end);
    Test.make ~name:"all shards have equal length >= ceil(len/k)" ~count:150 case
      (fun (n, k, len, seed) ->
        let g = Prng.create seed in
        let c = Rs.make ~n ~k in
        let shards = Rs.encode c (random_bytes g len) in
        let l0 = Bytes.length shards.(0) in
        Array.length shards = n
        && Array.for_all (fun s -> Bytes.length s = l0) shards
        && l0 >= (len + k - 1) / k)
  ]

let tests =
  ( "reed_solomon",
    [ tc "roundtrip" `Quick test_roundtrip_simple;
      tc "reconstruct each index" `Quick test_reconstruct_each_index;
      tc "reconstruct present shard" `Quick test_reconstruct_present;
      tc "n = k striping" `Quick test_trivial_code;
      tc "k = 1 replication" `Quick test_replication_shape;
      tc "empty data" `Quick test_empty_data;
      tc "validation" `Quick test_validation
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
