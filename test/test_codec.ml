(* Kernel-equivalence suite for the striped RS data path: the compiled
   schedule kernel is pinned bit-identical to the byte-wise table
   oracle on every operation, the bitmatrix lift is checked to be a
   ring homomorphism (the property decode's lift-the-inverse shortcut
   rests on), multi-domain striped encodes are pinned byte-identical
   to sequential ones, and the schedule kernel must stay at least 10x
   faster than the table kernel. *)

module Rs = S3_storage.Reed_solomon
module Bitmatrix = S3_storage.Bitmatrix
module Schedule = S3_storage.Schedule
module Matrix = S3_storage.Matrix
module Prng = S3_util.Prng

let tc = Alcotest.test_case

let random_bytes g n = Bytes.init n (fun _ -> Char.chr (Prng.int g 256))

let indexed shards = Array.to_list (Array.mapi (fun i s -> (i, s)) shards)

let shards_equal a b =
  Array.length a = Array.length b && Array.for_all2 Bytes.equal a b

(* ------------------------------------------------------------------ *)
(* Deterministic unit tests                                            *)
(* ------------------------------------------------------------------ *)

let test_kernel_names () =
  Alcotest.(check string) "table" "table" (Rs.kernel_name Rs.Table);
  Alcotest.(check string) "schedule" "schedule" (Rs.kernel_name Rs.Schedule);
  (match Rs.kernel_of_string " Table " with
  | Ok Rs.Table -> ()
  | _ -> Alcotest.fail "kernel_of_string table");
  (match Rs.kernel_of_string "schedule" with
  | Ok Rs.Schedule -> ()
  | _ -> Alcotest.fail "kernel_of_string schedule");
  match Rs.kernel_of_string "simd" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kernel_of_string should reject simd"

let test_packet_validation () =
  Alcotest.check_raises "unaligned packet"
    (Invalid_argument "Reed_solomon.make: packet_bytes must be a positive multiple of 8")
    (fun () -> ignore (Rs.make_packet ~packet_bytes:12 ~n:6 ~k:4));
  Alcotest.check_raises "zero packet"
    (Invalid_argument "Reed_solomon.make: packet_bytes must be a positive multiple of 8")
    (fun () -> ignore (Rs.make_packet ~packet_bytes:0 ~n:6 ~k:4));
  let c = Rs.make_packet ~packet_bytes:16 ~n:6 ~k:4 in
  Alcotest.(check int) "packet" 16 (Rs.packet_bytes c);
  Alcotest.(check int) "stripe" 128 (Rs.stripe_bytes c);
  Alcotest.(check int) "stripe count" 3 (Rs.stripe_count c ~shard_length:500)

(* The layout is part of the on-disk contract: a CRC change here means
   previously written parity no longer decodes the same way. *)
let test_golden_layout () =
  let c = Rs.make ~n:9 ~k:6 in
  let data = Bytes.init 40000 (fun i -> Char.chr (((i * 7) + 13) land 0xff)) in
  let shards = Rs.encode ~kernel:Rs.Schedule c data in
  let crc =
    Array.fold_left
      (fun acc s -> S3_util.Crc32.update acc s ~pos:0 ~len:(Bytes.length s))
      S3_util.Crc32.init shards
  in
  Alcotest.(check int32) "golden shard CRC" (-1357495326l) crc

let test_on_stripe_order () =
  let c = Rs.make_packet ~packet_bytes:8 ~n:6 ~k:4 in
  let sb = Rs.stripe_bytes c in
  (* 5 full stripes plus a 7-byte tail per shard. *)
  let data = random_bytes (Prng.create 11) (4 * ((5 * sb) + 7)) in
  let expect = [ 0; 1; 2; 3; 4 ] in
  let seen = ref [] in
  let shards =
    Rs.encode_stripes ~on_stripe:(fun s -> seen := s :: !seen) c data
  in
  Alcotest.(check (list int)) "sequential order" expect (List.rev !seen);
  seen := [];
  let par =
    Rs.encode_stripes ~domains:4 ~on_stripe:(fun s -> seen := s :: !seen) c data
  in
  Alcotest.(check (list int)) "parallel order" expect (List.rev !seen);
  Alcotest.(check bool) "parallel bytes identical" true (shards_equal shards par)

let test_reconstruct_share () =
  let c = Rs.make ~n:4 ~k:2 in
  let shards = Rs.encode c (Bytes.of_string "sharing is caring") in
  let held = Rs.reconstruct ~share:true c ~index:1 (indexed shards) in
  Alcotest.(check bool) "share returns the caller's buffer" true (held == shards.(1));
  let copied = Rs.reconstruct c ~index:1 (indexed shards) in
  Alcotest.(check bool) "default copies" true (copied != shards.(1));
  Alcotest.(check bytes) "same bytes" shards.(1) copied;
  let streamed = Rs.reconstruct_stripes c ~index:1 (indexed shards) in
  Alcotest.(check bool) "streaming never copies held shards" true (streamed == shards.(1))

let test_decode_no_trailing_copy () =
  let c = Rs.make ~n:6 ~k:4 in
  let data = random_bytes (Prng.create 3) 4096 in
  let shards = Rs.encode c data in
  let full = Rs.decode c (indexed shards) in
  Alcotest.(check int) "padded length" (4 * 1024) (Bytes.length full);
  Alcotest.(check bytes) "prefix is the object" data (Bytes.sub full 0 4096)

(* The schedule kernel's reason to exist: a (9,6) encode of 1 MiB at
   least 10x faster than the byte-wise table kernel. CPU time, with the
   two kernels' runs interleaved and the best of 5 kept for each, so a
   busy machine slows both alike. *)
let test_schedule_kernel_floor () =
  let c = Rs.make ~n:9 ~k:6 in
  let len = 1024 * 1024 in
  let data = random_bytes (Prng.create 5) len in
  let best = Array.make 2 infinity in
  for _ = 1 to 5 do
    List.iteri
      (fun i kernel ->
        let t0 = Sys.time () in
        ignore (Rs.encode ~kernel c data);
        best.(i) <- Float.min best.(i) (Sys.time () -. t0))
      [ Rs.Schedule; Rs.Table ]
  done;
  let mbps s = float_of_int len /. (s *. 1e6) in
  if best.(0) *. 10. > best.(1) then
    Alcotest.failf "schedule kernel %.1f MB/s is below 10x the table kernel's %.1f MB/s"
      (mbps best.(0)) (mbps best.(1))

(* Every erasure pattern up to n - k losses decodes and rebuilds
   identically under both kernels. *)
let test_exhaustive_erasures () =
  List.iter
    (fun (n, k) ->
      let c = Rs.make_packet ~packet_bytes:8 ~n ~k in
      let len = k * ((2 * Rs.stripe_bytes c) + 13) in
      let data = random_bytes (Prng.create (n + k)) len in
      let shards = Rs.encode c data in
      let rec patterns lost i =
        if List.length lost = n - k then [ lost ]
        else if i = n then [ lost ]
        else patterns (i :: lost) (i + 1) @ patterns lost (i + 1)
      in
      List.iter
        (fun lost ->
          let survivors = List.filter (fun (i, _) -> not (List.mem i lost)) (indexed shards) in
          let via_t = Rs.decode ~kernel:Rs.Table ~length:len c survivors in
          let via_s = Rs.decode ~kernel:Rs.Schedule ~length:len c survivors in
          Alcotest.(check bytes)
            (Printf.sprintf "(%d,%d) decode agrees" n k)
            via_t via_s;
          Alcotest.(check bytes) "roundtrip" data via_s;
          List.iter
            (fun idx ->
              let rt = Rs.reconstruct ~kernel:Rs.Table c ~index:idx survivors in
              let rs = Rs.reconstruct ~kernel:Rs.Schedule c ~index:idx survivors in
              Alcotest.(check bytes) "reconstruct agrees" rt rs;
              Alcotest.(check bytes) "reconstruct matches encode" shards.(idx) rs)
            lost)
        (patterns [] 0))
    [ (6, 4); (9, 6) ]

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let qcheck =
  let open QCheck in
  let code_gen =
    Gen.(
      let* k = 1 -- 8 in
      let* extra = 0 -- 5 in
      let* packet = oneofl [ 8; 16; 32 ] in
      return (k + extra, k, packet))
  in
  (* Lengths engineered to hit the interesting tails: whole stripes
     plus a remainder of 0 / 1 / 7 / 8 / 9 bytes per shard, and a
     uniform fallback. *)
  let len_gen (k, packet) =
    Gen.(
      let stripe = 8 * packet in
      oneof
        [ (let* s = 0 -- 3 in
           let* t = oneofl [ 0; 1; 7; 8; 9 ] in
           let* slack = 0 -- (k - 1) in
           return (max 0 ((k * ((s * stripe) + t)) - slack)));
          0 -- (4 * k * stripe)
        ])
  in
  let case =
    make
      ~print:(fun (n, k, packet, len, seed) ->
        Printf.sprintf "n=%d k=%d packet=%d len=%d seed=%d" n k packet len seed)
      Gen.(
        let* n, k, packet = code_gen in
        let* len = len_gen (k, packet) in
        let* seed = 0 -- 10000 in
        return (n, k, packet, len, seed))
  in
  [ Test.make ~name:"encode: schedule kernel is bit-identical to the table oracle"
      ~count:200 case (fun (n, k, packet, len, seed) ->
        let c = Rs.make_packet ~packet_bytes:packet ~n ~k in
        let data = random_bytes (Prng.create seed) len in
        shards_equal (Rs.encode ~kernel:Rs.Table c data) (Rs.encode ~kernel:Rs.Schedule c data));
    Test.make ~name:"decode: kernels agree on random k-subsets and recover the object"
      ~count:200 case (fun (n, k, packet, len, seed) ->
        let g = Prng.create seed in
        let c = Rs.make_packet ~packet_bytes:packet ~n ~k in
        let data = random_bytes g len in
        let shards = Rs.encode c data in
        let subset = Prng.sample g k (indexed shards) in
        let via_t = Rs.decode ~kernel:Rs.Table ~length:len c subset in
        let via_s = Rs.decode ~kernel:Rs.Schedule ~length:len c subset in
        Bytes.equal via_t via_s && Bytes.equal via_s data);
    Test.make ~name:"reconstruct: kernels agree and match the encoded shard" ~count:200
      case (fun (n, k, packet, len, seed) ->
        let g = Prng.create seed in
        let c = Rs.make_packet ~packet_bytes:packet ~n ~k in
        let data = random_bytes g (max len 1) in
        let shards = Rs.encode c data in
        let lost = Prng.int g n in
        let survivors = List.filter (fun (i, _) -> i <> lost) (indexed shards) in
        List.length survivors < k
        ||
        let subset = Prng.sample g k survivors in
        let rt = Rs.reconstruct ~kernel:Rs.Table c ~index:lost subset in
        let rs = Rs.reconstruct ~kernel:Rs.Schedule c ~index:lost subset in
        Bytes.equal rt rs && Bytes.equal rs shards.(lost));
    Test.make ~name:"striped encode: 1 domain and 4 domains are byte-identical"
      ~count:100 case (fun (n, k, packet, len, seed) ->
        let c = Rs.make_packet ~packet_bytes:packet ~n ~k in
        let data = random_bytes (Prng.create seed) len in
        let seq = Rs.encode_stripes ~domains:1 c data in
        let par = Rs.encode_stripes ~domains:4 c data in
        shards_equal seq par && shards_equal seq (Rs.encode c data));
    Test.make ~name:"striped reconstruct: 1 domain and 4 domains are byte-identical"
      ~count:100 case (fun (n, k, packet, len, seed) ->
        let g = Prng.create seed in
        let c = Rs.make_packet ~packet_bytes:packet ~n ~k in
        let data = random_bytes g (max len 1) in
        let shards = Rs.encode c data in
        let lost = Prng.int g n in
        let survivors = List.filter (fun (i, _) -> i <> lost) (indexed shards) in
        List.length survivors < k
        ||
        let subset = Prng.sample g k survivors in
        let seq = Rs.reconstruct_stripes ~domains:1 c ~index:lost subset in
        let par = Rs.reconstruct_stripes ~domains:4 c ~index:lost subset in
        Bytes.equal seq par);
    (* The algebra the decode shortcut rests on: lifting commutes with
       matrix multiplication, so inverting in GF(256) and lifting gives
       the GF(2) inverse. *)
    Test.make ~name:"bitmatrix lift is a ring homomorphism" ~count:200
      QCheck.(
        make
          Gen.(
            let* a = 1 -- 5 in
            let* b = 1 -- 5 in
            let* c = 1 -- 5 in
            let* seed = 0 -- 10000 in
            return (a, b, c, seed)))
      (fun (a, b, c, seed) ->
        let g = Prng.create seed in
        let ma = Matrix.init ~rows:a ~cols:b (fun _ _ -> Prng.int g 256) in
        let mb = Matrix.init ~rows:b ~cols:c (fun _ _ -> Prng.int g 256) in
        Bitmatrix.equal
          (Bitmatrix.of_matrix (Matrix.mul ma mb))
          (Bitmatrix.mul (Bitmatrix.of_matrix ma) (Bitmatrix.of_matrix mb)));
    (* Schedule execution vs. the byte-wise bitmatrix oracle, smart and
       dumb, on a raw random GF map (not just codec-shaped ones). *)
    Test.make ~name:"compiled schedules match the bitmatrix oracle" ~count:200
      QCheck.(
        make
          Gen.(
            let* rows = 1 -- 5 in
            let* cols = 1 -- 5 in
            let* packet = oneofl [ 8; 16; 24 ] in
            let* seed = 0 -- 10000 in
            return (rows, cols, packet, seed)))
      (fun (rows, cols, packet, seed) ->
        let g = Prng.create seed in
        let m = Matrix.init ~rows ~cols (fun _ _ -> Prng.int g 256) in
        let bm = Bitmatrix.of_matrix m in
        let srcs = Array.init cols (fun _ -> random_bytes g (8 * packet)) in
        let soffs = Array.make cols 0 in
        let run f =
          let dsts = Array.init rows (fun _ -> Bytes.make (8 * packet) '\xFE') in
          f ~srcs ~soffs ~dsts ~doffs:(Array.make rows 0) ~packet;
          dsts
        in
        let oracle = run (Bitmatrix.apply_packets bm) in
        let smart = Schedule.compile bm in
        let dumb = Schedule.compile ~smart:false bm in
        Schedule.op_count smart <= Schedule.op_count dumb
        && shards_equal oracle (run (Schedule.apply smart))
        && shards_equal oracle (run (Schedule.apply dumb)))
  ]

let tests =
  ( "codec",
    [ tc "kernel names" `Quick test_kernel_names;
      tc "packet validation" `Quick test_packet_validation;
      tc "golden layout CRC" `Quick test_golden_layout;
      tc "on_stripe ordering" `Quick test_on_stripe_order;
      tc "reconstruct share" `Quick test_reconstruct_share;
      tc "decode without trailing copy" `Quick test_decode_no_trailing_copy;
      tc "exhaustive erasure patterns" `Quick test_exhaustive_erasures
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck
    @ [ tc "schedule kernel >= 10x table kernel" `Quick test_schedule_kernel_floor ] )
