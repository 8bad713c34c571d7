module Prng = S3_util.Prng
module Topology = S3_net.Topology

type file_id = int

type file = {
  id : file_id;
  n : int;
  k : int;
  chunk_volume : float;
  locations : int array;
}

type t = {
  topo : Topology.t;
  mutable next_id : int;
  files_tbl : (file_id, file) Hashtbl.t;
  up : bool array;  (* server liveness *)
}

let create topo =
  { topo;
    next_id = 0;
    files_tbl = Hashtbl.create 64;
    up = Array.make (Topology.servers topo) true
  }

let topology t = t.topo

let check_server t s =
  if s < 0 || s >= Array.length t.up then invalid_arg "Cluster: server out of range"

let alive_servers t =
  List.filter (fun s -> t.up.(s)) (List.init (Array.length t.up) Fun.id)

let add_file t g ~n ~k ~chunk_volume () =
  if k <= 0 || n < k then invalid_arg "Cluster.add_file: need 0 < k <= n";
  if chunk_volume <= 0. then invalid_arg "Cluster.add_file: chunk_volume must be positive";
  let eligible = alive_servers t in
  if List.length eligible < n then invalid_arg "Cluster.add_file: not enough alive servers";
  let id = t.next_id in
  t.next_id <- id + 1;
  (* Draw placements until all chosen servers are alive; with few dead
     servers this terminates almost immediately, and a fallback after a
     bounded number of draws places directly on alive servers. *)
  let rec draw attempts =
    if attempts > 64 then Array.of_list (Prng.sample g n eligible)
    else begin
      let servers = Placement.place g t.topo Placement.Rack_aware ~object_id:id ~n in
      if Array.for_all (fun s -> t.up.(s)) servers then servers else draw (attempts + 1)
    end
  in
  let locations = draw 0 in
  Hashtbl.replace t.files_tbl id { id; n; k; chunk_volume; locations };
  id

let file t id =
  match Hashtbl.find_opt t.files_tbl id with
  | Some f -> f
  | None -> raise Not_found

let files t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.files_tbl []
  |> List.sort (fun a b -> compare a.id b.id)

let chunks_on t s =
  check_server t s;
  Hashtbl.fold
    (fun _ f acc ->
      let here = ref acc in
      Array.iteri (fun c srv -> if srv = s then here := (f.id, c) :: !here) f.locations;
      !here)
    t.files_tbl []
  |> List.sort compare

let survivors t id =
  let f = file t id in
  let out = ref [] in
  Array.iteri
    (fun c srv -> if srv >= 0 && t.up.(srv) then out := (c, srv) :: !out)
    f.locations;
  List.rev !out

let fail_server t s =
  check_server t s;
  if not t.up.(s) then []
  else begin
    t.up.(s) <- false;
    let lost = chunks_on t s in
    List.iter
      (fun (fid, c) ->
        let f = file t fid in
        f.locations.(c) <- -1)
      lost;
    lost
  end

let revive_server t s =
  check_server t s;
  t.up.(s) <- true

let repair_destination t g id =
  let f = file t id in
  let holds s = Array.exists (fun srv -> srv = s) f.locations in
  let candidates = List.filter (fun s -> not (holds s)) (alive_servers t) in
  match candidates with
  | [] -> None
  (* lint: allow partial-stdlib — Prng.int g n returns a value in
     [0, n); the index is strictly below List.length cs by contract *)
  | cs -> Some (List.nth cs (Prng.int g (List.length cs)))

let total_stored_volume t =
  (* Sum in file-id order ([files] sorts): float addition is not
     associative, so hash-bucket order would leak into the total. *)
  List.fold_left
    (fun acc f ->
      let placed =
        Array.fold_left (fun n srv -> if srv >= 0 && t.up.(srv) then n + 1 else n) 0 f.locations
      in
      acc +. (float_of_int placed *. f.chunk_volume))
    0. (files t)
