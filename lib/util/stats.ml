let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let total xs = List.fold_left ( +. ) 0. xs

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
    sqrt var

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty"
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty"
  | x :: xs -> List.fold_left max x xs

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

type cdf = float array (* sorted samples *)

let cdf_of_samples xs =
  if xs = [] then invalid_arg "Stats.cdf_of_samples: empty";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let cdf_eval c x =
  (* Binary search for the number of samples <= x. *)
  let n = Array.length c in
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if c.(mid) <= x then go (mid + 1) hi else go lo mid
    end
  in
  float_of_int (go 0 n) /. float_of_int n

let cdf_points c ~steps =
  if steps <= 0 then invalid_arg "Stats.cdf_points: steps must be positive";
  let lo = c.(0) and hi = c.(Array.length c - 1) in
  let span = if hi > lo then hi -. lo else 1. in
  List.init (steps + 1) (fun i ->
      let x = lo +. (span *. float_of_int i /. float_of_int steps) in
      (x, cdf_eval c x))

let histogram ~bins ~lo ~hi xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if hi <= lo then invalid_arg "Stats.histogram: empty range";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  let bucket x =
    let i = int_of_float ((x -. lo) /. width) in
    max 0 (min (bins - 1) i)
  in
  List.iter (fun x -> counts.(bucket x) <- counts.(bucket x) + 1) xs;
  counts
