let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
    sqrt var

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty"
  | x :: xs -> List.fold_left (fun a (b : float) -> if a <= b then a else b) x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty"
  | x :: xs -> List.fold_left (fun a (b : float) -> if a >= b then a else b) x xs

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end
