module Prng = S3_util.Prng
module Topology = S3_net.Topology

type record = {
  time : float;
  machine : int;
}

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char ',' line with
    | [ t; m ] -> (
      match (float_of_string_opt (String.trim t), int_of_string_opt (String.trim m)) with
      | Some time, Some machine when Float.is_finite time && time >= 0. && machine >= 0 ->
        Some { time; machine }
      | _ -> invalid_arg (Printf.sprintf "Trace.parse_line: malformed %S" line))
    | _ -> invalid_arg (Printf.sprintf "Trace.parse_line: malformed %S" line)

let parse body =
  String.split_on_char '\n' body |> List.filter_map parse_line

let to_csv records =
  String.concat ""
    (List.map (fun r -> Printf.sprintf "%.6f,%d\n" r.time r.machine) records)

let synthetic g ~machines ~tasks =
  if machines <= 0 then invalid_arg "Trace.synthetic: machines must be positive";
  if tasks < 0 then invalid_arg "Trace.synthetic: negative tasks";
  (* Background Poisson stream spread over all machines, plus bursts:
     a burst is a job array — a Pareto-sized batch of submissions
     landing back-to-back across the whole machine population, which is
     how array jobs appear in the Google trace. *)
  let out = ref [] in
  let produced = ref 0 in
  let now = ref 0. in
  while !produced < tasks do
    now := !now +. Prng.exponential g ~rate:0.15;
    if Prng.float g 1. < 0.25 then begin
      let burst = int_of_float (Prng.pareto g ~shape:1.3 ~scale:8.) in
      let burst = min (max burst 1) (tasks - !produced) in
      let t = ref !now in
      for _ = 1 to burst do
        out := { time = !t; machine = Prng.int g machines } :: !out;
        incr produced;
        t := !t +. Prng.exponential g ~rate:30.
      done
    end
    else begin
      out := { time = !now; machine = Prng.int g machines } :: !out;
      incr produced
    end
  done;
  List.sort (fun a b -> Float.compare a.time b.time) !out

let to_tasks g topo records ~chunk_size_mb ~deadline_factor =
  if not (Float.is_finite chunk_size_mb && chunk_size_mb > 0.) then
    invalid_arg "Trace.to_tasks: chunk size";
  if not (Float.is_finite deadline_factor && deadline_factor > 0.) then
    invalid_arg "Trace.to_tasks: deadline factor";
  let nservers = Topology.servers topo in
  if nservers < 2 then invalid_arg "Trace.to_tasks: need at least two servers";
  let records = List.sort (fun a b -> Float.compare a.time b.time) records in
  let t0 = match records with [] -> 0. | r :: _ -> r.time in
  let volume = Generator.mb_to_megabits chunk_size_mb in
  let cst =
    (Topology.entity topo (Topology.server_entity topo 0)).Topology.capacity
  in
  let lrt = volume /. cst in
  List.mapi
    (fun id r ->
      let source = r.machine mod nservers in
      let destination =
        let d = Prng.int g (nservers - 1) in
        if d >= source then d + 1 else d
      in
      let arrival = r.time -. t0 in
      Task.v ~id ~kind:Task.Generic ~arrival
        ~deadline:(arrival +. (deadline_factor *. lrt))
        ~volume ~k:1 ~sources:[| source |] ~destination ())
    records
