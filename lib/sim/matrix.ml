(* Scenario-matrix sweep and report generation. Everything here is a
   pure function of the axes and the base seed: cell enumeration order,
   per-cell seed derivation and both artifact renderings avoid every
   nondeterministic input (wall clocks, hash order, domain count), so a
   matrix rerun — sequential or parallel — reproduces the same bytes. *)

module Topology = S3_net.Topology
module Registry = S3_core.Registry
module Profile = S3_workload.Profile
module Prng = S3_util.Prng
module Sweep = S3_par.Sweep

type axes = {
  profiles : Profile.spec list;
  codes : (int * int) list;
  topologies : (string * (unit -> Topology.t)) list;
  algorithms : string list;
  detectors : (string * S3_fault.Detector.config option) list;
  faults : S3_fault.Fault.t;
  tasks : int;
  seed : int;
}

type cell = {
  spec : Profile.spec;
  code : int * int;
  topology : string;
  algorithm : string;
  detector : string * S3_fault.Detector.config option;
  cell_seed : int;
  run : Metrics.run;
}

(* The detector axis stays invisible in both artifacts unless a cell
   actually carries a config, so the default [("off", None)] axis
   reproduces the pre-detector report bytes (the cram golden pins
   them). *)
let detector_shown c = not (String.equal (fst c.detector) "off")

let validate axes =
  if axes.profiles = [] then invalid_arg "Matrix: empty profile axis";
  if axes.codes = [] then invalid_arg "Matrix: empty code axis";
  if axes.topologies = [] then invalid_arg "Matrix: empty topology axis";
  if axes.algorithms = [] then invalid_arg "Matrix: empty algorithm axis";
  if axes.detectors = [] then invalid_arg "Matrix: empty detector axis";
  if axes.tasks < 0 then invalid_arg "Matrix: tasks must be >= 0";
  List.iter
    (fun (n, k) ->
      if k <= 0 || n < k then
        invalid_arg (Printf.sprintf "Matrix: bad erasure code (%d,%d)" n k))
    axes.codes;
  List.iter (fun name -> ignore (Registry.make name)) axes.algorithms

(* The workload seed of a cell depends on its profile/code/topology
   coordinates but NOT on its algorithm or detector, so every algorithm
   (and every detection latency) in a group schedules the identical
   task stream — the comparison the ranking table relies on. The
   multipliers only need to keep distinct coordinate triples on
   distinct seeds for axis lengths that fit in a report. *)
let workload_seed axes ~pi ~ci ~ti =
  axes.seed + (pi * 1_000_003) + (ci * 10_007) + (ti * 101)

let run ?domains axes =
  validate axes;
  let profiles = Array.of_list axes.profiles in
  let codes = Array.of_list axes.codes in
  let topologies = Array.of_list axes.topologies in
  let algorithms = Array.of_list axes.algorithms in
  let detectors = Array.of_list axes.detectors in
  let nc = Array.length codes in
  let nt = Array.length topologies in
  let na = Array.length algorithms in
  let nd = Array.length detectors in
  let total = Array.length profiles * nd * nc * nt * na in
  let cells =
    Sweep.map ?domains total (fun idx ->
        (* Enumeration order: profile, detector, code, topology,
           algorithm — algorithm fastest-varying, so groups stay
           contiguous runs of [na] cells. *)
        let ai = idx mod na in
        let ti = idx / na mod nt in
        let ci = idx / (na * nt) mod nc in
        let di = idx / (na * nt * nc) mod nd in
        let pi = idx / (na * nt * nc * nd) in
        let spec = profiles.(pi) in
        let code = codes.(ci) in
        let topo_name, build = topologies.(ti) in
        let algorithm = algorithms.(ai) in
        let detector = detectors.(di) in
        let cell_seed = workload_seed axes ~pi ~ci ~ti in
        let topo = build () in
        let tasks =
          Profile.generate ~code ~tasks:axes.tasks (Prng.create cell_seed) topo spec
        in
        let fg = spec.Profile.profile.Profile.fg_frac in
        let config =
          { Engine.foreground =
              (if fg > 0. then Foreground.uniform ~max_frac:fg else Foreground.none);
            seed = cell_seed + 1
          }
        in
        let run =
          Engine.run ~config ~faults:axes.faults ?detector:(snd detector) topo
            (Registry.make algorithm) tasks
        in
        { spec; code; topology = topo_name; algorithm; detector; cell_seed; run })
  in
  Array.to_list cells

(* ---- aggregation ---- *)

let total_tasks c = List.length c.run.Metrics.outcomes
let hit_rate c =
  let n = total_tasks c in
  if n = 0 then 0. else float_of_int (Metrics.completed c.run) /. float_of_int n

(* Mean goodput over the run: megabits moved per second of horizon. *)
let throughput c =
  if c.run.Metrics.horizon <= 0. then 0.
  else c.run.Metrics.transferred /. c.run.Metrics.horizon

let wasted_gb c = c.run.Metrics.wasted /. 8000.

let cell_label c =
  let n, k = c.code in
  Printf.sprintf "%s x%s/(%d,%d)/%s/%s%s" c.spec.Profile.profile.Profile.name
    (Printf.sprintf "%g" c.spec.Profile.scale)
    n k c.topology c.algorithm
    (if detector_shown c then "/" ^ fst c.detector else "")

(* ---- CSV artifact ---- *)

let csv cells =
  let with_det = List.exists detector_shown cells in
  (* Detector labels are spec strings ('suspect=1,confirm=2'); keep the
     row well-formed by mapping their commas to spaces. *)
  let det_field c = String.map (fun ch -> if ch = ',' then ' ' else ch) (fst c.detector) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "profile,scale,n,k,topology,algorithm,%sseed,tasks,completed,hit_rate,remaining_gb,throughput_mbps,wasted_gb,utilization,horizon_s,fingerprint\n"
       (if with_det then "detector," else ""));
  List.iter
    (fun c ->
      let n, k = c.code in
      Buffer.add_string buf
        (Printf.sprintf "%s,%g,%d,%d,%s,%s,%s%d,%d,%d,%.4f,%.4f,%.2f,%.4f,%.6f,%.3f,%s\n"
           c.spec.Profile.profile.Profile.name c.spec.Profile.scale n k c.topology
           c.algorithm
           (if with_det then det_field c ^ "," else "")
           c.cell_seed (total_tasks c)
           (Metrics.completed c.run)
           (hit_rate c) (Metrics.remaining_volume_gb c.run) (throughput c) (wasted_gb c)
           c.run.Metrics.utilization c.run.Metrics.horizon
           (Report.fingerprint c.run)))
    cells;
  Buffer.contents buf

let report_fingerprint cells = Digest.to_hex (Digest.string (csv cells))

(* ---- ranking ---- *)

type standing = {
  algorithm : string;
  pooled_completed : int;
  pooled_tasks : int;
  total_wasted : float;
  wins : int;  (** groups where no competitor completed more tasks *)
}

(* Groups are the (profile, code, topology) triples; with algorithm
   fastest-varying they are contiguous runs of [na] cells. *)
let group_cells ~na cells =
  let rec chunk acc rest =
    match rest with
    | [] -> List.rev acc
    | _ ->
      let rec take n xs acc =
        match (n, xs) with
        | 0, _ | _, [] -> (List.rev acc, xs)
        | n, x :: tl -> take (n - 1) tl (x :: acc)
      in
      let group, rest = take na rest [] in
      chunk (group :: acc) rest
  in
  chunk [] cells

let standings ~algorithms ~na cells =
  let groups = group_cells ~na cells in
  List.map
    (fun name ->
      let mine = List.filter (fun (c : cell) -> String.equal c.algorithm name) cells in
      let pooled_completed =
        List.fold_left (fun acc c -> acc + Metrics.completed c.run) 0 mine
      in
      let pooled_tasks = List.fold_left (fun acc c -> acc + total_tasks c) 0 mine in
      let total_wasted = List.fold_left (fun acc c -> acc +. wasted_gb c) 0. mine in
      let wins =
        List.fold_left
          (fun acc group ->
            let best =
              List.fold_left (fun m c -> max m (Metrics.completed c.run)) 0 group
            in
            let leads =
              List.exists
                (fun (c : cell) ->
                  String.equal c.algorithm name && Metrics.completed c.run = best)
                group
            in
            if leads then acc + 1 else acc)
          0 groups
      in
      { algorithm = name; pooled_completed; pooled_tasks; total_wasted; wins })
    algorithms

let pooled_rate s =
  if s.pooled_tasks = 0 then 0.
  else float_of_int s.pooled_completed /. float_of_int s.pooled_tasks

let compare_standing a b =
  (* Best hit rate first; fewer wasted gigabytes, then the name, break
     ties — a total order, so the ranking is stable across reruns. *)
  let c = Float.compare (pooled_rate b) (pooled_rate a) in
  if c <> 0 then c
  else
    let c = Float.compare a.total_wasted b.total_wasted in
    if c <> 0 then c else String.compare a.algorithm b.algorithm

(* ---- markdown artifact ---- *)

let pct x = Printf.sprintf "%.1f%%" (100. *. x)

let markdown axes cells =
  let buf = Buffer.create 4096 in
  let na = List.length axes.algorithms in
  let with_det = List.exists detector_shown cells in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# Scenario matrix report\n\n";
  add
    "%d cells: %d profiles x %d erasure codes x %d topologies x %d algorithms%s, %d \
     tasks per cell, base seed %d.\n\n"
    (List.length cells) (List.length axes.profiles) (List.length axes.codes)
    (List.length axes.topologies) na
    (if with_det then Printf.sprintf " x %d detectors" (List.length axes.detectors) else "")
    axes.tasks axes.seed;
  add "## Dimensions\n\n";
  add "| dimension | values |\n|---|---|\n";
  add "| profile | %s |\n"
    (String.concat "; "
       (List.map
          (fun (s : Profile.spec) ->
            Printf.sprintf "%s x%g (%s)" s.Profile.profile.Profile.name s.Profile.scale
              s.Profile.profile.Profile.summary)
          axes.profiles));
  add "| erasure code | %s |\n"
    (String.concat "; " (List.map (fun (n, k) -> Printf.sprintf "(%d,%d)" n k) axes.codes));
  add "| topology | %s |\n" (String.concat "; " (List.map fst axes.topologies));
  if not (S3_fault.Fault.is_empty axes.faults) then
    add "| faults | %s |\n" (S3_fault.Fault.to_string axes.faults);
  if with_det then
    add "| detector | %s |\n" (String.concat "; " (List.map fst axes.detectors));
  add "| algorithm | %s |\n\n" (String.concat "; " axes.algorithms);
  add "## Algorithm ranking\n\n";
  add
    "Pooled over every cell an algorithm ran; a group win means no competitor \
     completed more tasks on that (profile, code, topology) workload.\n\n";
  add "| rank | algorithm | deadline-hit | wasted (GB) | group wins |\n";
  add "|---|---|---|---|---|\n";
  let ranked = List.sort compare_standing (standings ~algorithms:axes.algorithms ~na cells) in
  List.iteri
    (fun i s ->
      add "| %d | %s | %d/%d (%s) | %.2f | %d/%d |\n" (i + 1) s.algorithm
        s.pooled_completed s.pooled_tasks
        (pct (pooled_rate s))
        s.total_wasted s.wins
        (List.length cells / na))
    ranked;
  add "\n## Per-cell results\n\n";
  let groups = group_cells ~na cells in
  let last_profile = ref "" in
  List.iter
    (fun group ->
      match group with
      | [] -> ()
      | first :: _ ->
        let pname = first.spec.Profile.profile.Profile.name in
        if not (String.equal !last_profile pname) then begin
          last_profile := pname;
          add "### profile %s (x%g)\n\n" pname first.spec.Profile.scale;
          add "%s\n\n" first.spec.Profile.profile.Profile.summary;
          add
            "| code | topology | %salgorithm | deadline-hit | remaining (GB) | \
             throughput (Mb/s) | wasted (GB) | utilization |\n"
            (if with_det then "detector | " else "");
          add "|---|---|---|---|---|---|---|---|%s\n" (if with_det then "---|" else "")
        end;
        List.iter
          (fun c ->
            let n, k = c.code in
            add "| (%d,%d) | %s | %s%s | %d/%d (%s) | %.2f | %.1f | %.2f | %s |\n" n k
              c.topology
              (if with_det then fst c.detector ^ " | " else "")
              c.algorithm
              (Metrics.completed c.run)
              (total_tasks c)
              (pct (hit_rate c))
              (Metrics.remaining_volume_gb c.run)
              (throughput c) (wasted_gb c)
              (pct c.run.Metrics.utilization))
          group)
    groups;
  add "\n## Run fingerprints\n\n";
  add
    "MD5 over every timing-independent metric of the cell's run (see \
     Report.fingerprint); any scheduling change moves these.\n\n";
  add "| cell | seed | fingerprint |\n|---|---|---|\n";
  List.iter
    (fun c -> add "| %s | %d | %s |\n" (cell_label c) c.cell_seed (Report.fingerprint c.run))
    cells;
  add "\nReport fingerprint: %s\n" (report_fingerprint cells);
  Buffer.contents buf
