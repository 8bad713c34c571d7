(* Byte-wise reference for [Reed_solomon], built only on the public
   field, matrix and lift modules. It derives the generator on its own
   and applies the codec's layout the slow, obvious way: every full
   1 KiB stripe through the lift of the map, packet by packet, and the
   tail past the last stripe coefficient by coefficient. The codec
   tests compare [Reed_solomon]'s encode, decode and reconstruct with
   it bit for bit, and time its encode against the schedule kernel. *)

module Gf256 = S3_storage.Gf256
module Matrix = S3_storage.Matrix
module Bitmatrix = S3_storage.Bitmatrix

let packet = 128
let stripe = 8 * packet

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)
(* ------------------------------------------------------------------ *)

(* Set bits in the lift of [m], counted bit by bit. *)
let lift_ones m =
  let bm = Bitmatrix.of_matrix m in
  let ones = ref 0 in
  for r = 0 to Bitmatrix.rows bm - 1 do
    for c = 0 to Bitmatrix.cols bm - 1 do
      if Bitmatrix.get bm r c then incr ones
    done
  done;
  !ones

(* Identity over the Cauchy block 1 / (i + j), i = k .. n-1 and
   j = 0 .. k-1, with each parity row scaled by the constant whose
   lifted row has the fewest ones, the smallest constant on ties. *)
let derive ~n ~k =
  let cauchy i j = Gf256.inv (Gf256.add i j) in
  let scale i =
    let row c = Matrix.init ~rows:1 ~cols:k (fun _ j -> Gf256.mul c (cauchy i j)) in
    let best = ref 0 and fewest = ref max_int in
    for c = 1 to 255 do
      let ones = lift_ones (row c) in
      if ones < !fewest then begin
        best := c;
        fewest := ones
      end
    done;
    !best
  in
  let scales = Array.init (n - k) (fun p -> scale (k + p)) in
  Matrix.init ~rows:n ~cols:k (fun i j ->
      if i < k then if i = j then 1 else 0 else Gf256.mul scales.(i - k) (cauchy i j))

let generators = Hashtbl.create 16

let generator ~n ~k =
  match Hashtbl.find_opt generators (n, k) with
  | Some g -> g
  | None ->
    let g = derive ~n ~k in
    Hashtbl.replace generators (n, k) g;
    g

(* ------------------------------------------------------------------ *)
(* The two regions                                                     *)
(* ------------------------------------------------------------------ *)

(* One stripe through the lift [bm]: input shard [j]'s packet [c] is
   the [packet] bytes at [soffs.(j) + c * packet] of [srcs.(j)], output
   packets likewise. Every output packet is zeroed, then XORs in each
   input packet whose bit is set. The bits are read once, when [bm] is
   applied. *)
let apply_packets bm =
  let bits =
    Array.init (Bitmatrix.rows bm) (fun r -> Array.init (Bitmatrix.cols bm) (Bitmatrix.get bm r))
  in
  fun ~srcs ~soffs ~dsts ~doffs ~packet ->
    for row = 0 to Array.length bits - 1 do
      let dst = dsts.(row / 8) in
      let doff = doffs.(row / 8) + (row mod 8 * packet) in
      Bytes.fill dst doff packet '\000';
      for col = 0 to Array.length bits.(row) - 1 do
        if bits.(row).(col) then begin
          let src = srcs.(col / 8) in
          let soff = soffs.(col / 8) + (col mod 8 * packet) in
          for p = 0 to packet - 1 do
            Bytes.set dst (doff + p)
              (Char.chr
                 (Char.code (Bytes.get dst (doff + p)) lxor Char.code (Bytes.get src (soff + p))))
          done
        end
      done
    done

(* dst.(doff + p) <- dst.(doff + p) xor tab.(src.(soff + p)): one
   coefficient's share of the tail. *)
let xor_mul_into ~tab ~src ~soff ~dst ~doff ~len =
  for p = 0 to len - 1 do
    Bytes.set dst (doff + p)
      (Char.chr (Char.code (Bytes.get dst (doff + p)) lxor tab.(Char.code (Bytes.get src (soff + p)))))
  done

(* The m x k map [r] applied to k sources of [len] bytes: the m
   outputs. *)
let apply_map r srcs len =
  let m = Matrix.rows r and k = Matrix.cols r in
  let outs = Array.init m (fun _ -> Bytes.create len) in
  let apply = apply_packets (Bitmatrix.of_matrix r) in
  let stripes = len / stripe in
  for s = 0 to stripes - 1 do
    apply ~srcs ~soffs:(Array.make k (s * stripe)) ~dsts:outs
      ~doffs:(Array.make m (s * stripe)) ~packet
  done;
  let soff = stripes * stripe in
  for i = 0 to m - 1 do
    Bytes.fill outs.(i) soff (len - soff) '\000';
    for j = 0 to k - 1 do
      let e = Matrix.get r i j in
      if e <> 0 then
        xor_mul_into ~tab:(Gf256.mul_table e) ~src:srcs.(j) ~soff ~dst:outs.(i) ~doff:soff
          ~len:(len - soff)
    done
  done;
  outs

(* ------------------------------------------------------------------ *)
(* The operations                                                      *)
(* ------------------------------------------------------------------ *)

let encode ~n ~k data =
  let len = max 1 ((Bytes.length data + k - 1) / k) in
  let padded = Bytes.make (k * len) '\000' in
  Bytes.blit data 0 padded 0 (Bytes.length data);
  let shards = Array.init k (fun j -> Bytes.sub padded (j * len) len) in
  if n = k then shards
  else
    let parity = Matrix.select_rows (generator ~n ~k) (List.init (n - k) (fun p -> k + p)) in
    Array.append shards (apply_map parity shards len)

(* The padded object from the first k of [shards], through the
   inverse of their generator rows. *)
let decode ~n ~k shards =
  let chosen = List.filteri (fun i _ -> i < k) shards in
  let srcs = Array.of_list (List.map snd chosen) in
  match Matrix.invert (Matrix.select_rows (generator ~n ~k) (List.map fst chosen)) with
  | None -> invalid_arg "Codec_ref.decode: singular generator rows"
  | Some inv -> Bytes.concat Bytes.empty (Array.to_list (apply_map inv srcs (Bytes.length srcs.(0))))

(* A lost shard is the one encode makes from the decoded object. *)
let reconstruct ~n ~k ~index shards = (encode ~n ~k (decode ~n ~k shards)).(index)
