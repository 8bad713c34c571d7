(* Rebalance: a new rack joins the cluster.

   Capacity expansion is the second background workload the paper
   names: data must migrate onto the new servers to restore uniform
   placement, without disturbing foreground traffic or missing the
   operator's migration window. Each move is a single-source transfer
   (k = 1); the interesting part is that hundreds of moves share the
   new rack's TOR uplink. We also inject time-varying foreground
   traffic, which only the LP-based schedulers absorb gracefully.

   Run with: dune exec examples/rebalance.exe *)

module Topology = S3_net.Topology
module Cluster = S3_storage.Cluster
module Placement = S3_storage.Placement
module Generator = S3_workload.Generator
module Registry = S3_core.Registry
module Engine = S3_sim.Engine
module Foreground = S3_sim.Foreground
module Metrics = S3_sim.Metrics
module Prng = S3_util.Prng
module Table = S3_util.Table

let () =
  (* The cluster is built with 4 racks, but all data initially lives on
     the first 3 — rack 3 is the newly installed hardware. *)
  let topo = Topology.two_tier ~racks:4 ~servers_per_rack:10 ~cst:500. ~cta:1500. in
  let g = Prng.create 99 in
  let cluster = Cluster.create topo in
  let new_rack = Topology.servers_in_rack topo 3 in
  List.iter (fun s -> ignore (Cluster.fail_server cluster s)) new_rack;
  let files =
    List.init 150 (fun _ -> Cluster.add_file cluster g ~n:9 ~k:6 ~chunk_volume:512. ())
  in
  List.iter (Cluster.revive_server cluster) new_rack;

  (* Plan the migration: move one random chunk of every third file onto
     the new rack, spreading over its servers. *)
  let targets = Array.of_list new_rack in
  let moves =
    List.filteri (fun i _ -> i mod 3 = 0) files
    |> List.mapi (fun i fid ->
           let f = Cluster.file cluster fid in
           let chunk = Prng.int g f.Cluster.n in
           (fid, chunk, targets.(i mod Array.length targets)))
  in
  let tasks =
    Generator.rebalance_tasks g cluster ~moves ~now:0. ~deadline_factor:12. ~first_id:0
  in
  Printf.printf "expansion: %d chunk moves onto rack 3 (%.1f GB), deadline 12x LRT each\n\n"
    (List.length tasks)
    (List.fold_left (fun acc (t : S3_workload.Task.t) -> acc +. t.volume) 0. tasks /. 8000.);

  (* Foreground traffic takes up to 40% of any link, re-rolled every
     5 s — the migration must live with it. *)
  let config = { Engine.foreground = Foreground.uniform ~max_frac:0.4; seed = 3 } in
  let rows =
    List.map
      (fun name ->
        let run = Engine.run ~config topo (Registry.make name) tasks in
        [ run.Metrics.algorithm;
          Printf.sprintf "%d/%d" (Metrics.completed run) (List.length tasks);
          Table.fmt_float ~decimals:1 (Metrics.remaining_volume_gb run);
          Table.fmt_float ~decimals:1 run.Metrics.horizon
        ])
      [ "fifo"; "disfifo"; "disedf"; "lpall"; "lpst" ]
  in
  print_endline
    (Table.render
       ~align:[ Table.Left; Table.Right; Table.Right; Table.Right ]
       ~header:[ "algorithm"; "moved in time"; "stranded GB"; "makespan(s)" ]
       rows)
