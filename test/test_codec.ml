(* Oracle suite for the striped RS data path: every operation is
   pinned bit-identical to the byte-wise reference in [Codec_ref],
   which derives the generator on its own; the bitmatrix lift is
   checked to be a ring homomorphism (the property decode's
   lift-the-inverse shortcut rests on), multi-domain striped encodes
   are pinned byte-identical to sequential ones, and the schedule
   kernel must stay at least 10x faster than the reference. *)

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

let ref_encode c = Codec_ref.encode ~n:(Rs.n c) ~k:(Rs.k c)
let ref_decode c = Codec_ref.decode ~n:(Rs.n c) ~k:(Rs.k c)
let ref_reconstruct c = Codec_ref.reconstruct ~n:(Rs.n c) ~k:(Rs.k c)

(* ------------------------------------------------------------------ *)
(* Deterministic unit tests                                            *)
(* ------------------------------------------------------------------ *)

(* The layout is part of the on-disk contract: a CRC change here means
   previously written parity no longer decodes the same way. *)
let test_golden_layout () =
  let c = Rs.make ~n:9 ~k:6 in
  let data = Bytes.init 40000 (fun i -> Char.chr (((i * 7) + 13) land 0xff)) in
  let shards = Rs.encode c data in
  let crc = Crc32.digest (Bytes.concat Bytes.empty (Array.to_list shards)) in
  Alcotest.(check int32) "golden shard CRC" (-1357495326l) crc

(* A shard already held is never shared with the caller by
   [reconstruct]. *)
let test_reconstruct_share () =
  let c = Rs.make ~n:4 ~k:2 in
  let shards = Rs.encode c (Bytes.of_string "sharing is caring") in
  let copied = Rs.reconstruct c ~index:1 (indexed shards) in
  Alcotest.(check bool) "held shard is copied" true (copied != shards.(1));
  Alcotest.(check bytes) "same bytes" shards.(1) copied

let test_decode_no_trailing_copy () =
  let c = Rs.make ~n:6 ~k:4 in
  let data = random_bytes (Prng.create 3) 4096 in
  let shards = Rs.encode c data in
  let full = Rs.decode c (indexed shards) in
  Alcotest.(check int) "padded length" (4 * 1024) (Bytes.length full);
  Alcotest.(check bytes) "prefix is the object" data (Bytes.sub full 0 4096)

(* The schedule kernel's reason to exist: a (9,6) encode of 1 MiB at
   least 10x faster than the byte-wise reference. CPU time, with the
   two sides' runs interleaved and the best of 5 kept for each, so a
   busy machine slows both alike. *)
let test_schedule_kernel_floor () =
  let c = Rs.make ~n:9 ~k:6 in
  let len = 1024 * 1024 in
  let data = random_bytes (Prng.create 5) len in
  let best = Array.make 2 infinity in
  for _ = 1 to 5 do
    List.iteri
      (fun i encode ->
        let t0 = Sys.time () in
        ignore (encode data : bytes array);
        best.(i) <- Float.min best.(i) (Sys.time () -. t0))
      [ Rs.encode c; ref_encode c ]
  done;
  let mbps s = float_of_int len /. (s *. 1e6) in
  let speeds =
    Printf.sprintf "schedule kernel %.1f MB/s, reference %.1f MB/s (%.1fx)" (mbps best.(0))
      (mbps best.(1)) (best.(1) /. best.(0))
  in
  print_endline speeds;
  if best.(0) *. 10. > best.(1) then Alcotest.failf "below 10x: %s" speeds

(* Every erasure pattern up to n - k losses decodes and rebuilds as the
   reference does, over two full stripes and a tail per shard. *)
let test_exhaustive_erasures () =
  List.iter
    (fun (n, k) ->
      let c = Rs.make ~n ~k in
      let len = k * ((2 * Codec_ref.stripe) + 13) in
      let data = random_bytes (Prng.create (n + k)) len in
      let shards = Rs.encode c data in
      Alcotest.(check bool)
        (Printf.sprintf "(%d,%d) encode agrees" n k)
        true
        (shards_equal (ref_encode c data) shards);
      let rec patterns lost i =
        if List.length lost = n - k then [ lost ]
        else if i = n then [ lost ]
        else patterns (i :: lost) (i + 1) @ patterns lost (i + 1)
      in
      List.iter
        (fun lost ->
          let survivors = List.filter (fun (i, _) -> not (List.mem i lost)) (indexed shards) in
          let via_t = ref_decode c survivors in
          let via_s = Rs.decode c survivors in
          Alcotest.(check bytes)
            (Printf.sprintf "(%d,%d) decode agrees" n k)
            via_t via_s;
          Alcotest.(check bytes) "roundtrip" data (Bytes.sub via_s 0 len);
          List.iter
            (fun idx ->
              let rt = ref_reconstruct c ~index:idx survivors in
              let rs = Rs.reconstruct c ~index:idx survivors in
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
      return (k + extra, k))
  in
  (* Lengths engineered to hit the interesting tails: whole stripes
     plus a remainder of 0 / 1 / 7 / 8 / 9 bytes per shard, and a
     uniform fallback, up to 4 stripes per shard. *)
  let len_gen k =
    Gen.(
      let stripe = Codec_ref.stripe in
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
      ~print:(fun (n, k, len, seed) -> Printf.sprintf "n=%d k=%d len=%d seed=%d" n k len seed)
      Gen.(
        let* n, k = code_gen in
        let* len = len_gen k in
        let* seed = 0 -- 10000 in
        return (n, k, len, seed))
  in
  [ Test.make ~name:"encode: schedule kernel is bit-identical to the table oracle"
      ~count:200 case (fun (n, k, len, seed) ->
        let c = Rs.make ~n ~k in
        let data = random_bytes (Prng.create seed) len in
        shards_equal (ref_encode c data) (Rs.encode c data));
    Test.make ~name:"decode: kernels agree on random k-subsets and recover the object"
      ~count:200 case (fun (n, k, len, seed) ->
        let g = Prng.create seed in
        let c = Rs.make ~n ~k in
        let data = random_bytes g len in
        let shards = Rs.encode c data in
        let subset = Prng.sample g k (indexed shards) in
        let via_t = ref_decode c subset in
        let via_s = Rs.decode c subset in
        Bytes.equal via_t via_s && Bytes.equal (Bytes.sub via_s 0 len) data);
    Test.make ~name:"reconstruct: kernels agree and match the encoded shard" ~count:200
      case (fun (n, k, len, seed) ->
        let g = Prng.create seed in
        let c = Rs.make ~n ~k in
        let data = random_bytes g (max len 1) in
        let shards = Rs.encode c data in
        let lost = Prng.int g n in
        let survivors = List.filter (fun (i, _) -> i <> lost) (indexed shards) in
        List.length survivors < k
        ||
        let subset = Prng.sample g k survivors in
        let rt = ref_reconstruct c ~index:lost subset in
        let rs = Rs.reconstruct c ~index:lost subset in
        Bytes.equal rt rs && Bytes.equal rs shards.(lost));
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
        let lifted = Bitmatrix.of_matrix (Matrix.mul ma mb) in
        let la = Bitmatrix.of_matrix ma and lb = Bitmatrix.of_matrix mb in
        (* The GF(2) product of the lifts, bit by bit. *)
        let product r c =
          let acc = ref false in
          for t = 0 to Bitmatrix.cols la - 1 do
            if Bitmatrix.get la r t && Bitmatrix.get lb t c then acc := not !acc
          done;
          !acc
        in
        Bitmatrix.rows lifted = Bitmatrix.rows la
        && Bitmatrix.cols lifted = Bitmatrix.cols lb
        && List.for_all
             (fun r -> List.for_all (fun c -> Bitmatrix.get lifted r c = product r c)
                 (List.init (Bitmatrix.cols lb) Fun.id))
             (List.init (Bitmatrix.rows la) Fun.id));
    (* Schedule execution vs. the reference's packet loop on a raw
       random GF map (not just codec-shaped ones). *)
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
        let oracle = run (Codec_ref.apply_packets bm) in
        shards_equal oracle (run (Schedule.apply (Schedule.compile bm))));
    (* Last, at index 10: test reports name a case by suite, index and
       name. *)
    Test.make ~name:"striped encode: 1 domain and 4 domains are byte-identical"
      ~count:100 case (fun (n, k, len, seed) ->
        let c = Rs.make ~n ~k in
        let data = random_bytes (Prng.create seed) len in
        let seq = Rs.encode_stripes ~domains:1 c data in
        let par = Rs.encode_stripes ~domains:4 c data in
        shards_equal seq par && shards_equal seq (Rs.encode c data))
  ]

let tests =
  ( "codec",
    [ tc "schedule kernel >= 10x table kernel" `Quick test_schedule_kernel_floor;
      tc "golden layout CRC" `Quick test_golden_layout;
      tc "reconstruct share" `Quick test_reconstruct_share;
      tc "decode without trailing copy" `Quick test_decode_no_trailing_copy;
      tc "exhaustive erasure patterns" `Quick test_exhaustive_erasures
    ]
    @ List.map QCheck_alcotest.to_alcotest qcheck )
