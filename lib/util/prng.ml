type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* SplitMix64 finalizer: state advances by the golden gamma, the output
   is a bit-mixed copy of the new state. *)
let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int without
     wrapping negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  v mod n

let float g x =
  if x <= 0. then invalid_arg "Prng.float: bound must be positive";
  (* 53 uniform mantissa bits in [0,1). *)
  let bits = Int64.shift_right_logical (bits64 g) 11 in
  let u = Int64.to_float bits /. 9007199254740992. in
  u *. x

let uniform g lo hi =
  if hi <= lo then invalid_arg "Prng.uniform: empty interval";
  lo +. float g (hi -. lo)

let bool g = Int64.logand (bits64 g) 1L = 1L

let exponential g ~rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1. -. float g 1. in
  -.log u /. rate

let pareto g ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Prng.pareto";
  let u = 1. -. float g 1. in
  scale /. (u ** (1. /. shape))

let gaussian g ~mean ~stddev =
  let u1 = 1. -. float g 1. in
  let u2 = float g 1. in
  mean +. (stddev *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample g k xs =
  let a = Array.of_list xs in
  if k < 0 || k > Array.length a then invalid_arg "Prng.sample";
  shuffle g a;
  Array.to_list (Array.sub a 0 k)
