(* Quickstart: the whole library in one small program.

   1. Build a two-tier datacenter topology.
   2. Encode an object with Reed-Solomon (9,6) and place its nine
      chunks rack-aware on nine servers.
   3. Lose a server, derive the deadline repair task, and schedule it
      with LPST.
   4. Rebuild the lost chunk from the chunks that LPST's chosen sources
      hold, and compare it byte for byte with the original. The program
      exits 1 unless the repair met its deadline and the bytes match.

   Run with: dune exec examples/quickstart.exe *)

module Topology = S3_net.Topology
module Cluster = S3_storage.Cluster
module Rs = S3_storage.Reed_solomon
module Generator = S3_workload.Generator
module Task = S3_workload.Task
module Registry = S3_core.Registry
module Engine = S3_sim.Engine
module Metrics = S3_sim.Metrics
module Prng = S3_util.Prng

let () =
  (* A small datacenter: 3 racks x 10 servers, 500 Mb/s server links,
     1.5 Gb/s TOR uplinks — the paper's evaluation setup. *)
  let topo = Topology.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  Printf.printf "topology: %s (%d servers, %d capacity entities)\n" (Topology.name topo)
    (Topology.servers topo)
    (Array.length (Topology.entities topo));

  (* Encode with a (9,6) MDS code — any 6 of the 9 chunks reconstruct
     the object — and record the file's placement in the cluster
     metadata, which sizes chunks in megabits. *)
  let g = Prng.create 2024 in
  let code = Rs.make ~n:9 ~k:6 in
  let payload = Bytes.init 6_000_000 (fun i -> Char.chr ((i * 131) land 0xff)) in
  let chunks = Rs.encode code payload in
  let cluster = Cluster.create topo in
  let chunk_volume = float_of_int (Bytes.length chunks.(0)) *. 8e-6 in
  let file = Cluster.add_file cluster g ~n:9 ~k:6 ~chunk_volume () in
  let locations = (Cluster.file cluster file).Cluster.locations in
  Printf.printf "stored %d bytes as 9 chunks of %d bytes on servers: %s\n"
    (Bytes.length payload) (Bytes.length chunks.(0))
    (String.concat " " (Array.to_list (Array.map string_of_int locations)));

  (* A server dies and its chunk is lost. The generator turns the loss
     into a repair task whose deadline is 10x its least required
     time. *)
  let lost = 0 in
  let victim = locations.(lost) in
  let tasks =
    Generator.repair_tasks_on_failure g cluster ~server:victim ~now:0. ~deadline_factor:10.
      ~first_id:0
  in
  Printf.printf "server %d failed; %d repair task(s) generated\n" victim (List.length tasks);

  (* LPST schedules the repair: Phase I picks the 6 least-congested
     sources, Phase II admits by remaining time flexibility, Phase III
     assigns bandwidth by LP. The engine plays it out flow by flow. *)
  let run = Engine.run topo (Registry.make "lpst") tasks in
  match run.Metrics.outcomes with
  | [ o ] ->
    Printf.printf "repair via servers [%s] to server %d: %s (deadline %.1fs)\n"
      (String.concat ";" (Array.to_list (Array.map string_of_int o.Metrics.sources)))
      o.Metrics.task.Task.destination
      (if o.Metrics.completed then Printf.sprintf "completed at %.2fs" o.Metrics.finish_time
       else "MISSED")
      o.Metrics.task.Task.deadline;
    (* Rebuild the lost chunk from the chunks the chosen sources hold. *)
    let survivors = Cluster.survivors cluster file in
    let held =
      Array.to_list o.Metrics.sources
      |> List.map (fun server ->
             let chunk, _ = List.find (fun (_, s) -> s = server) survivors in
             (chunk, chunks.(chunk)))
    in
    let identical = Bytes.equal (Rs.reconstruct code ~index:lost held) chunks.(lost) in
    Printf.printf "rebuilt chunk %d from chunks [%s]: %s\n" lost
      (String.concat ";" (List.map (fun (c, _) -> string_of_int c) held))
      (if identical then "identical to the lost chunk" else "DIFFERS from the lost chunk");
    if not (o.Metrics.completed && identical) then exit 1
  | outcomes ->
    Printf.printf "expected one repair outcome, got %d\n" (List.length outcomes);
    exit 1
