type t = {
  rows : int;  (* bit rows *)
  cols : int;  (* bit cols *)
  bits : Bytes.t;  (* row-major, one byte per bit (0 / 1) *)
}

(* The polynomial basis x^0 .. x^7, the field powers of x = 2. *)
let basis = Array.init 8 (Gf256.pow 2)

(* Bits of e·xᶜ for c = 0..7: each block column is a plain field
   multiplication away. *)
let lift_block e =
  Array.init 8 (fun c -> Gf256.mul e basis.(c))

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
