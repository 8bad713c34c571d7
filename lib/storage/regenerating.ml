type point =
  | Msr
  | Mbr

type params = {
  n : int;
  k : int;
  d : int;
  point : point;
}

let make ~n ~k ~d point =
  if k <= 0 || d < k || d > n - 1 then
    invalid_arg "Regenerating.make: need 0 < k <= d <= n - 1";
  { n; k; d; point }

let fk p = float_of_int p.k
let fd p = float_of_int p.d

(* Cut-set bound corner points (Dimakis et al. 2010, eqs. (5)-(6)):
   MSR: (alpha, beta) = (M/k, M / (k (d - k + 1)))
   MBR: (alpha, beta) = (2Md / (2kd - k^2 + k), 2M / (2kd - k^2 + k)) *)
let helper_traffic p ~object_size =
  if object_size < 0. then invalid_arg "Regenerating.helper_traffic: negative size";
  match p.point with
  | Msr -> object_size /. (fk p *. (fd p -. fk p +. 1.))
  | Mbr -> 2. *. object_size /. ((2. *. fk p *. fd p) -. (fk p *. fk p) +. fk p)

let repair_traffic p ~object_size = fd p *. helper_traffic p ~object_size

let repair_savings p =
  (* Classic MDS repair of the same object moves k * (M/k) = M. *)
  let gamma = repair_traffic p ~object_size:1. in
  1. -. gamma
