module Prng = S3_util.Prng

type file_info = {
  id : Cluster.file_id;
  code : Reed_solomon.code;
  length : int;
}

type t = {
  cluster : Cluster.t;
  store : Store.t;
  files : (Cluster.file_id, file_info) Hashtbl.t;
}

let create cluster =
  { cluster;
    store = Store.create ~servers:(S3_net.Topology.servers (Cluster.topology cluster));
    files = Hashtbl.create 64
  }

let cluster t = t.cluster
let store t = t.store

let volume_of_bytes n = max 0.001 (float_of_int n *. 8e-6)

let file_info t id =
  match Hashtbl.find_opt t.files id with
  | Some info -> info
  | None -> raise Not_found

let write_file t g ~n ~k data =
  let code = Reed_solomon.make ~n ~k in
  let shards = Reed_solomon.encode code data in
  let chunk_volume = volume_of_bytes (Bytes.length shards.(0)) in
  let id = Cluster.add_file t.cluster g ~n ~k ~chunk_volume () in
  let locations = (Cluster.file t.cluster id).Cluster.locations in
  Array.iteri
    (fun chunk server -> Store.put t.store ~server ~file:id ~chunk shards.(chunk))
    locations;
  let info = { id; code; length = Bytes.length data } in
  Hashtbl.replace t.files id info;
  info

(* Live (chunk, server, shard bytes) triples of a file. The blobs are
   borrowed from the store — read-only codec/verification sources, so
   the defensive copy would be pure overhead. *)
let live_shards t id =
  List.filter_map
    (fun (chunk, server) ->
      Option.map
        (fun blob -> (chunk, server, blob))
        (Store.borrow t.store ~server ~file:id ~chunk))
    (Cluster.survivors t.cluster id)

let read_file t id =
  let info = file_info t id in
  let k = Reed_solomon.k info.code in
  let shards = live_shards t id in
  if List.length shards < k then failwith "Pipeline.read_file: unrecoverable (fewer than k shards)";
  let subset = List.filteri (fun i _ -> i < k) shards in
  Reed_solomon.decode ~length:info.length info.code
    (List.map (fun (chunk, _, blob) -> (chunk, blob)) subset)

let repair t ~file ~chunk ~sources ~destination =
  let info = file_info t file in
  let meta = Cluster.file t.cluster file in
  if chunk < 0 || chunk >= meta.Cluster.n then invalid_arg "Pipeline.repair: chunk index";
  let holder = meta.Cluster.locations.(chunk) in
  if holder >= 0 && Cluster.alive t.cluster holder then
    invalid_arg "Pipeline.repair: chunk is not lost";
  let k = Reed_solomon.k info.code in
  let survivors = Cluster.survivors t.cluster file in
  let shard_of source =
    match List.find_opt (fun (_, server) -> server = source) survivors with
    | None -> invalid_arg "Pipeline.repair: source holds no live chunk of this file"
    | Some (c, server) -> (
      (* Borrowed read-only: the codec only reads its sources, and the
         rebuilt shard is a fresh buffer. *)
      match Store.borrow t.store ~server ~file ~chunk:c with
      | None -> invalid_arg "Pipeline.repair: metadata/data mismatch at source"
      | Some blob -> (c, blob))
  in
  let shards = List.map shard_of sources in
  if List.length shards < k then
    invalid_arg "Pipeline.repair: fewer than k sources";
  let subset = List.filteri (fun i _ -> i < k) shards in
  let rebuilt = Reed_solomon.reconstruct info.code ~index:chunk subset in
  (* Metadata first (it validates destination), then bytes. *)
  Cluster.place_chunk t.cluster file ~chunk ~server:destination;
  Store.put t.store ~server:destination ~file ~chunk rebuilt

let scrub t =
  List.filter_map
    (fun (server, file, chunk) ->
      (* Only quarantine shards the metadata still points at. *)
      match Hashtbl.find_opt t.files file with
      | None -> None
      | Some _ ->
        let meta = Cluster.file t.cluster file in
        if chunk < meta.Cluster.n && meta.Cluster.locations.(chunk) = server then begin
          Cluster.evict_chunk t.cluster file ~chunk;
          Store.delete t.store ~server ~file ~chunk;
          Some (file, chunk)
        end
        else None)
    (Store.scrub t.store)

let verify_file t id =
  let info = file_info t id in
  match read_file t id with
  | exception Failure _ -> false
  | data ->
    let expect = Reed_solomon.encode info.code data in
    Cluster.survivors t.cluster id
    |> List.for_all (fun (chunk, server) ->
           match Store.borrow t.store ~server ~file:id ~chunk with
           | None -> false
           | Some blob -> Bytes.equal blob expect.(chunk))
