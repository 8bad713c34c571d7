module Crc32 = S3_util.Crc32

type shard = {
  blob : bytes;
  crc : int32;  (* checksum at write time, verified by scrubs *)
}

type t = {
  shards : (int * int, shard) Hashtbl.t array;  (* per server: (file, chunk) -> shard *)
}

let create ~servers =
  if servers <= 0 then invalid_arg "Store.create: servers must be positive";
  { shards = Array.init servers (fun _ -> Hashtbl.create 64) }

let table t server =
  if server < 0 || server >= Array.length t.shards then
    invalid_arg "Store: server out of range";
  t.shards.(server)

let put t ~server ~file ~chunk blob =
  Hashtbl.replace (table t server) (file, chunk)
    { blob = Bytes.copy blob; crc = Crc32.digest blob }

let borrow t ~server ~file ~chunk =
  Option.map (fun s -> s.blob) (Hashtbl.find_opt (table t server) (file, chunk))

let checksum_ok t ~server ~file ~chunk =
  Option.map
    (fun s -> Crc32.digest s.blob = s.crc)
    (Hashtbl.find_opt (table t server) (file, chunk))

let scrub t =
  (* Per-server fold, each re-sorted: server-major concatenation of
     sorted (file, chunk) runs is the same total order the old global
     sort produced. *)
  Array.to_list t.shards
  |> List.mapi (fun server tbl ->
         Hashtbl.fold
           (fun (file, chunk) s acc ->
             if Crc32.digest s.blob <> s.crc then (server, file, chunk) :: acc else acc)
           tbl []
         |> List.sort compare)
  |> List.concat

let corrupt t ~server ~file ~chunk =
  match Hashtbl.find_opt (table t server) (file, chunk) with
  | Some s when Bytes.length s.blob > 0 ->
    let b = Bytes.copy s.blob in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
    Hashtbl.replace (table t server) (file, chunk) { s with blob = b }
  | _ -> ()

let delete t ~server ~file ~chunk = Hashtbl.remove (table t server) (file, chunk)

let wipe_server t server =
  let tbl = table t server in
  let n = Hashtbl.length tbl in
  Hashtbl.reset tbl;
  n
