module Prng = S3_util.Prng
module Topology = S3_net.Topology

type policy =
  | Flat_uniform
  | Rack_aware
  | Crush_weighted of float array

(* Stateless 64-bit mix of (object, server) for straw2 scores. *)
let crush_hash object_id server =
  let z = Int64.of_int ((object_id * 0x632BE5AB) lxor (server + 0x9E3779B9)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let flat_uniform g topo n =
  let all = List.init (Topology.servers topo) Fun.id in
  Array.of_list (Prng.sample g n all)

let rack_aware g topo n =
  let nracks = Topology.racks topo in
  let racks = Array.init nracks Fun.id in
  Prng.shuffle g racks;
  let pools =
    Array.map
      (fun r ->
        let servers = Array.of_list (Topology.servers_in_rack topo r) in
        Prng.shuffle g servers;
        (ref 0, servers))
      racks
  in
  let chosen = Array.make n (-1) in
  let placed = ref 0 in
  let rack = ref 0 in
  let attempts = ref 0 in
  while !placed < n && !attempts < n * nracks * 4 do
    incr attempts;
    let next, servers = pools.(!rack mod nracks) in
    if !next < Array.length servers then begin
      chosen.(!placed) <- servers.(!next);
      incr next;
      incr placed
    end;
    incr rack
  done;
  if !placed < n then invalid_arg "Placement: more chunks than servers";
  chosen

let crush_weighted weights topo ~object_id n =
  let nservers = Topology.servers topo in
  if Array.length weights <> nservers then
    invalid_arg "Placement: weight vector length must match server count";
  Array.iter (fun w -> if w < 0. then invalid_arg "Placement: negative weight") weights;
  (* straw2: score = ln(u) / w with u a hash-derived uniform in (0,1];
     larger (less negative) score wins; weight scales the draw so
     expected share is proportional to weight. *)
  let score s =
    if weights.(s) <= 0. then neg_infinity
    else begin
      let h = crush_hash object_id s in
      let u =
        (Int64.to_float (Int64.shift_right_logical h 11) +. 1.) /. 9007199254740993.
      in
      log u /. weights.(s)
    end
  in
  let ranked = Array.init nservers (fun s -> (score s, s)) in
  Array.sort (fun (a, _) (b, _) -> Float.compare b a) ranked;
  let eligible = Array.to_list ranked |> List.filter (fun (sc, _) -> sc > neg_infinity) in
  if List.length eligible < n then invalid_arg "Placement: not enough eligible servers";
  Array.of_list (List.filteri (fun i _ -> i < n) (List.map snd eligible))

let place g topo policy ~object_id ~n =
  if n <= 0 then invalid_arg "Placement.place: n must be positive";
  if n > Topology.servers topo then invalid_arg "Placement.place: n exceeds servers";
  match policy with
  | Flat_uniform -> flat_uniform g topo n
  | Rack_aware -> rack_aware g topo n
  | Crush_weighted w -> crush_weighted w topo ~object_id n
