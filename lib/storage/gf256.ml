let poly = 0x11D
let field = 256
let generator = 2

(* exp table of length 510 so that mul can skip the mod 255 reduction. *)
let exp_table, log_table =
  let exp = Array.make 510 0 in
  let log = Array.make field 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := !x * generator;
    if !x >= field then x := !x lxor poly
  done;
  for i = 255 to 509 do
    exp.(i) <- exp.(i - 255)
  done;
  (exp, log)

let check a =
  if a < 0 || a > 255 then invalid_arg "Gf256: element out of range"

let add a b = a lxor b

let mul a b = if a = 0 || b = 0 then 0 else exp_table.(log_table.(a) + log_table.(b))

(* Per-coefficient multiplication rows, built on first use and shared:
   row [a] maps x to a*x, turning the log/exp lookup pair in hot
   Reed–Solomon loops into a single array read. *)
let mul_rows : int array array = Array.make field [||]

let mul_table a =
  check a;
  let row = mul_rows.(a) in
  if Array.length row = field then row
  else begin
    let row = Array.init field (fun x -> mul a x) in
    mul_rows.(a) <- row;
    row
  end

let inv a =
  if a = 0 then raise Division_by_zero;
  exp_table.(255 - log_table.(a))

let pow a e =
  if e < 0 then invalid_arg "Gf256.pow: negative exponent";
  if e = 0 then 1
  else if a = 0 then 0
  else exp_table.(log_table.(a) * e mod 255)
