type t = {
  rows : int;  (* bit rows *)
  cols : int;  (* bit cols *)
  bits : Bytes.t;  (* row-major, one byte per bit (0 / 1) *)
}

(* Bits of e·2ᶜ for c = 0..7: x^c is the monomial 2ᶜ (< 256 for c <= 7),
   so the block column is a plain field multiplication away. *)
let lift_block e =
  Array.init 8 (fun c -> Gf256.mul e (1 lsl c))

let of_matrix m =
  let r = Matrix.rows m and c = Matrix.cols m in
  let rows = 8 * r and cols = 8 * c in
  let bits = Bytes.make (rows * cols) '\000' in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      let block = lift_block (Matrix.get m i j) in
      for bc = 0 to 7 do
        let col_bits = block.(bc) in
        for br = 0 to 7 do
          if (col_bits lsr br) land 1 = 1 then
            Bytes.set bits ((((8 * i) + br) * cols) + (8 * j) + bc) '\001'
        done
      done
    done
  done;
  { rows; cols; bits }

let rows bm = bm.rows
let cols bm = bm.cols

let get bm r c =
  if r < 0 || r >= bm.rows || c < 0 || c >= bm.cols then
    invalid_arg "Bitmatrix.get: out of range";
  Bytes.get bm.bits ((r * bm.cols) + c) <> '\000'

let element_ones e =
  Gf256.check e;
  let block = lift_block e in
  Array.fold_left
    (fun acc col ->
      let c = ref 0 in
      let v = ref col in
      while !v <> 0 do
        c := !c + (!v land 1);
        v := !v lsr 1
      done;
      acc + !c)
    0 block

let apply_packets bm ~srcs ~soffs ~dsts ~doffs ~packet =
  if packet <= 0 then invalid_arg "Bitmatrix.apply_packets: packet must be positive";
  let nin = bm.cols / 8 and nout = bm.rows / 8 in
  if Array.length srcs <> nin || Array.length soffs <> nin then
    invalid_arg "Bitmatrix.apply_packets: source shard count mismatch";
  if Array.length dsts <> nout || Array.length doffs <> nout then
    invalid_arg "Bitmatrix.apply_packets: destination shard count mismatch";
  let region = 8 * packet in
  Array.iteri
    (fun j s ->
      if soffs.(j) < 0 || soffs.(j) + region > Bytes.length s then
        invalid_arg "Bitmatrix.apply_packets: source region out of bounds")
    srcs;
  Array.iteri
    (fun i d ->
      if doffs.(i) < 0 || doffs.(i) + region > Bytes.length d then
        invalid_arg "Bitmatrix.apply_packets: destination region out of bounds")
    dsts;
  for row = 0 to bm.rows - 1 do
    let dst = dsts.(row / 8) in
    let doff = doffs.(row / 8) + ((row mod 8) * packet) in
    Bytes.fill dst doff packet '\000';
    for col = 0 to bm.cols - 1 do
      if Bytes.get bm.bits ((row * bm.cols) + col) <> '\000' then begin
        let src = srcs.(col / 8) in
        let soff = soffs.(col / 8) + ((col mod 8) * packet) in
        for p = 0 to packet - 1 do
          Bytes.set dst (doff + p)
            (Char.chr
               (Char.code (Bytes.get dst (doff + p))
               lxor Char.code (Bytes.get src (soff + p))))
        done
      end
    done
  done
