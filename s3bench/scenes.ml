(* Seeded input builders for the benchmark workloads.

   Every builder takes the workload seed and nothing else varies: the
   program under test only ever sees the generated topology, tasks,
   fault plan and bytes. Seed 0 reproduces the scenes the repository's
   existing experiments use (bench/experiments.ml) byte for byte, so
   their fingerprints carry over; any other seed is a held-out input on
   which only the invariants are checked.

   On the simulated fabrics the seed draws a symmetry of the topology —
   racks (leaves) permuted, and servers permuted inside each rack — and
   relabels every server the inputs name. Each seed therefore asks for
   the same amount of work, which keeps timings comparable across
   seeds, while server ids, and with them every id-based tie break,
   route-cache key and hash-table order, differ. *)

module Topology = S3_net.Topology
module Task = S3_workload.Task
module Generator = S3_workload.Generator
module Prng = S3_util.Prng

(* A derived generator seed: [base] at seed 0, a distinct stream
   otherwise. *)
let derive ~base seed = base + (7919 * seed)

(* [map.(s)] is the server that plays server [s]'s part under the
   seed's symmetry; the identity at seed 0. Racks must be of equal
   size, as in every fabric used here. *)
let server_map ~seed topo =
  let map = Array.init (Topology.servers topo) Fun.id in
  if seed <> 0 then begin
    let g = Prng.create (derive ~base:3 seed) in
    let racks =
      Array.init (Topology.racks topo) (fun r -> Array.of_list (Topology.servers_in_rack topo r))
    in
    let order = Array.init (Array.length racks) Fun.id in
    Prng.shuffle g order;
    Array.iteri
      (fun r members ->
        let image = Array.copy racks.(order.(r)) in
        Prng.shuffle g image;
        Array.iteri (fun j s -> map.(s) <- image.(j)) members)
      racks
  end;
  map

let relabel map tasks =
  List.map
    (fun (t : Task.t) ->
      { t with
        Task.sources = Array.map (fun s -> map.(s)) t.Task.sources;
        destination = map.(t.Task.destination)
      })
    tasks

(* ------------------------------------------------------------------ *)
(* 1040-server leaf-spine with rack-local repairs.                      *)

let leaves = 52
let per_leaf = 20

let leaf_spine () =
  Topology.leaf_spine ~leaves ~spines:4 ~servers_per_leaf:per_leaf ~cst:1000. ~cta:20000.

(* [m] leaf-local tasks, round-robin over leaves: every route is
   [src NIC; leaf switch; dst NIC], so the LP splits into one block
   per leaf. The seed permutes the order in which tasks are dealt to
   leaves. Servers keep their order inside a leaf: the identical tasks
   of a leaf get identical rates, and complete together, only while
   the LP's choice among equal optima is unchanged, and relabeling
   servers inside a leaf multiplies the completion events. *)
let leaf_local ~seed ~m ~volume ~deadline ~arrival =
  let order = Array.init leaves Fun.id in
  if seed <> 0 then Prng.shuffle (Prng.create (derive ~base:1 seed)) order;
  List.init m (fun i ->
      let base = order.(i mod leaves) * per_leaf in
      let slot = i / leaves in
      let dst = base + (slot mod per_leaf) in
      let sources = Array.init 6 (fun j -> base + ((slot + 1 + j) mod per_leaf)) in
      Task.v ~id:i ~arrival:(arrival i) ~deadline ~volume ~k:4 ~sources ~destination:dst ())

(* One arrival batch at t = 0 with a common 12 s deadline. *)
let burst_tasks ~seed ~m = leaf_local ~seed ~m ~volume:1000. ~deadline:12. ~arrival:(fun _ -> 0.)

(* 20 arrival waves of m/20 small tasks, one second apart. *)
let wave_tasks ~seed ~m =
  let wave = max 1 (m / 20) in
  leaf_local ~seed ~m ~volume:200. ~deadline:30. ~arrival:(fun i -> float_of_int (i / wave))

(* ------------------------------------------------------------------ *)
(* The paper's Table 3 cluster and task generator.                      *)

let two_tier () = Topology.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500.

let table3_config ~tasks ~rate =
  { Generator.num_tasks = tasks;
    arrival_rate = rate;
    chunk_size_mb = 64.;
    code_mix = [ ((9, 6), 1.) ];
    deadline_factor = 10.;
    deadline_jitter = 0.5;
    placement = S3_storage.Placement.Rack_aware
  }

let table3_tasks ~seed ~tasks ~rate topo =
  relabel (server_map ~seed topo)
    (Generator.generate (Prng.create 11) topo (table3_config ~tasks ~rate))

(* The Fig. 5 burst scene: [m] tasks arriving at 1000/s, all active at
   once, each with its first [k] candidates as sources. Returns the
   view an algorithm's [allocate] sees. *)
let plan_view ~seed ~m topo =
  let tasks =
    relabel (server_map ~seed topo)
      (Generator.generate (Prng.create (97 + m)) topo (table3_config ~tasks:m ~rate:1000.))
  in
  let flows =
    List.concat_map
      (fun (t : Task.t) ->
        List.init t.Task.k (fun i ->
            { S3_core.Problem.flow_id = (t.Task.id * 16) + i;
              task = t;
              source = t.Task.sources.(i);
              remaining = t.Task.volume
            }))
      tasks
  in
  { S3_core.Problem.now =
      List.fold_left (fun acc (t : Task.t) -> Float.max acc t.Task.arrival) 0. tasks;
    topo;
    flows = Lazy.from_val flows;
    available = (fun e -> (Topology.entity topo e).Topology.capacity);
    load = None
  }

(* ------------------------------------------------------------------ *)
(* Codec inputs.                                                        *)

let random_bytes ~seed ~salt len =
  let g = Prng.create (derive ~base:salt seed) in
  let b = Bytes.create len in
  let words = len / 8 in
  for i = 0 to words - 1 do
    Bytes.set_int64_le b (8 * i) (Prng.bits64 g)
  done;
  for i = 8 * words to len - 1 do
    Bytes.set_uint8 b i (Prng.int g 256)
  done;
  b
