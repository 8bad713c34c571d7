(* s3sim — command-line front end for the S3 scheduling simulator.

   Subcommands:
     run       simulate a synthetic workload under one or more algorithms
     trace     simulate a Google-style trace file (or a synthetic one)
     matrix    sweep profile x erasure code x topology x algorithm and
               emit a markdown + CSV summary report
     example   replay the paper's Fig. 1 / Table 2 scenario
     gen       emit a synthetic trace in time,machine CSV form

   Examples:
     s3sim run --algorithms lpst,lpall --rate 1.2 --tasks 500
     s3sim run --profile 'db-oltp,scale=1.5' --seed 7
     s3sim matrix --profiles 'mixed-70-30;db-oltp' --codes '6,4;9,6'
     s3sim trace --machines 30 --tasks 5000
     s3sim gen --tasks 1000 > trace.csv && s3sim trace --file trace.csv *)

open Cmdliner

module Topology = S3_net.Topology
module Generator = S3_workload.Generator
module Profile = S3_workload.Profile
module Trace = S3_workload.Trace
module Matrix = S3_sim.Matrix
module Registry = S3_core.Registry
module Engine = S3_sim.Engine
module Foreground = S3_sim.Foreground
module Metrics = S3_sim.Metrics
module Emulator = S3_cloud.Emulator
module Fault = S3_fault.Fault
module Table = S3_util.Table
module Prng = S3_util.Prng

(* ---- shared options ---- *)

let topology_arg =
  let doc = "Topology: two-tier(RACKSxSRV), fat-tree(K), leaf-spine(RACKS leaves) or bcube(PORTS,LEVELS)." in
  Arg.(value & opt string "two-tier" & info [ "topology" ] ~docv:"KIND" ~doc)

let racks = Arg.(value & opt int 3 & info [ "racks" ] ~doc:"Racks (two-tier).")
let servers = Arg.(value & opt int 10 & info [ "servers-per-rack" ] ~doc:"Servers per rack.")
let cst = Arg.(value & opt float 500. & info [ "cst" ] ~doc:"Server link capacity, Mb/s.")
let cta = Arg.(value & opt float 1500. & info [ "cta" ] ~doc:"TOR/switch capacity, Mb/s.")

let fat_k = Arg.(value & opt int 4 & info [ "fat-k" ] ~doc:"Fat-tree arity (even).")
let bcube_ports = Arg.(value & opt int 4 & info [ "bcube-ports" ] ~doc:"BCube switch ports.")
let bcube_levels = Arg.(value & opt int 2 & info [ "bcube-levels" ] ~doc:"BCube levels.")

(* The constructors' own range checks ([Invalid_argument]) become the
   one-line usage error, like every other malformed flag. *)
let make_topology kind racks servers cst cta fat_k ports levels =
  try
    match String.lowercase_ascii kind with
    | "two-tier" | "two_tier" -> Ok (Topology.two_tier ~racks ~servers_per_rack:servers ~cst ~cta)
    | "fat-tree" | "fat_tree" -> Ok (Topology.fat_tree ~k:fat_k ~cst ~cta)
    | "leaf-spine" | "leaf_spine" ->
      Ok
        (Topology.leaf_spine ~leaves:racks ~spines:(max 1 (racks / 2)) ~servers_per_leaf:servers
           ~cst ~cta)
    | "bcube" -> Ok (Topology.bcube ~ports ~levels ~cst ~cta)
    | other -> Error (Printf.sprintf "unknown topology %S" other)
  with Invalid_argument m -> Error m

let algorithms_arg =
  let doc =
    Printf.sprintf "Comma-separated algorithms to compare; any of: %s; or 'all'."
      (String.concat ", " Registry.names)
  in
  Arg.(value & opt string "fifo,disfifo,edf,disedf,lpall,lpst"
       & info [ "a"; "algorithms" ] ~docv:"NAMES" ~doc)

let parse_algorithms s =
  let names =
    if String.lowercase_ascii s = "all" then Registry.names
    else String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")
  in
  try Ok (List.map (fun n -> ignore (Registry.make n); n) names)
  with Invalid_argument m -> Error m

let seed_arg = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Workload PRNG seed.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log every scheduling event to stderr.")

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))
let fg_arg =
  Arg.(value & opt float 0.
       & info [ "fg" ] ~doc:"Max foreground occupancy per link, in [0,1).")
let cloud_arg =
  Arg.(value & flag
       & info [ "cloud" ]
           ~doc:"Run on the emulated cloud testbed (rsync quantization, control latency) \
                 instead of the ideal simulator.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write per-run results as CSV to $(docv) ('-' for stdout).")

let faults_arg =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Inject a deterministic fault plan: comma-separated events among \
                 crash@T:SRV, recover@T:SRV, rack@T:RACK and degrade@T:ENT:FACTOR:DUR, \
                 e.g. 'crash@30:5,degrade@10:36:0.5:20'.")

let parse_faults = function
  | None -> Ok Fault.empty
  | Some spec -> Fault.of_string spec

let fingerprint_arg =
  Arg.(value & flag
       & info [ "fingerprint" ]
           ~doc:"Print each run's deterministic fingerprint (MD5 over every                  timing-independent metric) after the table, one 'algorithm  digest'                  line per run.")

let watchdog_arg =
  Arg.(value & opt (some string) None
       & info [ "watchdog" ] ~docv:"SPEC"
           ~doc:"Enable the deadline watchdog (straggler swaps + early shedding): \
                 comma-separated overrides among slack=S (seconds), max-swaps=N and \
                 backoff=B (seconds), e.g. 'slack=1,max-swaps=3,backoff=2'; \
                 'default' for the defaults.")

let parse_watchdog = function
  | None -> Ok None
  | Some spec -> (
    match S3_sim.Watchdog.of_string spec with Ok c -> Ok (Some c) | Error e -> Error e)

let detect_arg =
  Arg.(value & opt (some string) None
       & info [ "detect" ] ~docv:"SPEC"
           ~doc:"Replace omniscient failure handling with the deterministic \
                 heartbeat detector: comma-separated overrides among suspect=S \
                 and confirm=C (seconds), latency=L (shorthand for suspect=L, \
                 confirm=0), and fp=N, fp-seed=K, fp-horizon=H for seeded false \
                 suspicions, e.g. 'suspect=1,confirm=2'; 'default' for the \
                 defaults. Only meaningful together with --faults.")

let parse_detect = function
  | None -> Ok None
  | Some spec -> (
    match S3_fault.Detector.of_string spec with Ok c -> Ok (Some c) | Error e -> Error e)

let retry_arg =
  Arg.(value & opt (some string) None
       & info [ "retry" ] ~docv:"SPEC"
           ~doc:"Arm per-flow stall retries for transient link degradations: \
                 comma-separated overrides among retries=N, timeout=T (seconds), \
                 backoff=B and resume=BOOL (resume-from-partial-progress for \
                 every replacement fetch), e.g. 'retries=3,timeout=0.5'; \
                 'default' for the defaults.")

let parse_retry = function
  | None -> Ok None
  | Some spec -> (
    match S3_sim.Retry.of_string spec with Ok c -> Ok (Some c) | Error e -> Error e)

(* The --fg occupancy as a foreground config. Only an exact 0 means no
   foreground load; any other value, NaN and negatives included, meets
   [Foreground.uniform]'s range check, so call this before any output. *)
let foreground_of fg =
  match Float.classify_float fg with
  | FP_zero -> Foreground.none
  | FP_normal | FP_subnormal | FP_infinite | FP_nan -> Foreground.uniform ~max_frac:fg

(* Runs every algorithm, then prints [header], a blank line and the
   results: a run that fails writes nothing to stdout. *)
let report ~header ~cloud ~foreground ~seed ?(faults = Fault.empty) ?detector ?retry ?watchdog
    ?csv ?(fingerprint = false) topo names tasks =
  let config = { Engine.foreground; seed = seed + 1 } in
  let with_faults = not (Fault.is_empty faults) in
  let with_detect = Option.is_some detector in
  let with_retry = Option.is_some retry in
  let with_watchdog = Option.is_some watchdog in
  let runs =
    List.map
      (fun name ->
        let alg = Registry.make name in
        if cloud then
          Emulator.run ~sim_config:config ~faults ?detector ?retry ?watchdog topo alg tasks
        else Engine.run ~config ~faults ?detector ?retry ?watchdog topo alg tasks)
      names
  in
  let rows =
    List.map
      (fun run ->
        [ run.Metrics.algorithm;
          Printf.sprintf "%d/%d" (Metrics.completed run) (List.length tasks);
          Table.fmt_float ~decimals:2 (Metrics.remaining_volume_gb run);
          Table.fmt_pct run.Metrics.utilization;
          Table.fmt_float ~decimals:1 run.Metrics.horizon;
          Printf.sprintf "%.2f" (1000. *. Metrics.mean_plan_time run)
        ]
        @ (if with_faults then
             [ string_of_int run.Metrics.flows_killed;
               string_of_int run.Metrics.tasks_rehomed;
               string_of_int run.Metrics.tasks_lost
             ]
           else [])
        @ (if with_detect then
             [ string_of_int run.Metrics.suspicions;
               string_of_int run.Metrics.false_suspicions;
               string_of_int run.Metrics.detections
             ]
           else [])
        @ (if with_retry then
             [ string_of_int run.Metrics.retries_attempted;
               string_of_int run.Metrics.retries_exhausted;
               Table.fmt_float ~decimals:2 (run.Metrics.bytes_resumed /. 8000.)
             ]
           else [])
        @
        if with_watchdog then
          [ string_of_int run.Metrics.swaps_attempted;
            string_of_int run.Metrics.swaps_successful;
            string_of_int run.Metrics.tasks_rescued;
            string_of_int run.Metrics.tasks_shed_early
          ]
        else [])
      runs
  in
  let fault_cols = if with_faults then [ "killed"; "rehomed"; "lost" ] else [] in
  let detect_cols =
    if with_detect then [ "suspected"; "false-susp"; "detected" ] else []
  in
  let retry_cols =
    if with_retry then [ "retries"; "exhausted"; "resumed(GB)" ] else []
  in
  let watchdog_cols =
    if with_watchdog then [ "attempts"; "swaps"; "rescued"; "shed" ] else []
  in
  let extra_cols = fault_cols @ detect_cols @ retry_cols @ watchdog_cols in
  print_string (header ^ "\n\n");
  print_endline
    (Table.render
       ~align:
         ([ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
         @ List.map (fun _ -> Table.Right) extra_cols)
       ~header:
         ([ "algorithm"; "completed"; "remaining(GB)"; "util"; "makespan(s)"; "plan(ms)" ]
         @ extra_cols)
       rows);
  if fingerprint then begin
    print_newline ();
    List.iter
      (fun run ->
        Printf.printf "%-12s %s\n" run.Metrics.algorithm (S3_sim.Report.fingerprint run))
      runs
  end;
  match csv with
  | None -> ()
  | Some "-" -> print_string (S3_sim.Report.csv_of_runs runs)
  | Some path ->
    let oc = open_out path in
    output_string oc (S3_sim.Report.csv_of_runs runs);
    close_out oc;
    Printf.printf "(csv written to %s)\n" path

let profile_arg =
  let doc =
    Printf.sprintf
      "Generate the workload from a named fio-style profile instead of the \
       rate/chunk/code flags: NAME[,scale=F][,tasks=N] with NAME one of %s. \
       Foreground occupancy defaults to the profile's own; --fg overrides it."
      (String.concat ", " Profile.names)
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"SPEC" ~doc)

let parse_profile = function
  | None -> Ok None
  | Some spec -> (
    match Profile.of_string spec with Ok s -> Ok (Some s) | Error e -> Error e)

(* ---- run ---- *)

let run_cmd =
  let tasks_arg = Arg.(value & opt int 300 & info [ "tasks" ] ~doc:"Number of tasks.") in
  let rate_arg = Arg.(value & opt float 0.5 & info [ "rate" ] ~doc:"Poisson arrival rate, /s.") in
  let chunk_arg = Arg.(value & opt float 64. & info [ "chunk" ] ~doc:"Chunk size, MB.") in
  let code_arg =
    Arg.(value & opt (pair ~sep:',' int int) (9, 6)
         & info [ "code" ] ~docv:"N,K" ~doc:"Erasure code (n,k).")
  in
  let factor_arg =
    Arg.(value & opt float 10. & info [ "deadline-factor" ] ~doc:"Deadline = factor x LRT.")
  in
  let jitter_arg =
    Arg.(value & opt float 0.5
         & info [ "deadline-jitter" ] ~doc:"Relative deadline-factor spread, [0,1).")
  in
  let run topo_kind racks servers cst cta fat_k ports levels algs tasks rate chunk (n, k)
      factor jitter profile_spec fg seed cloud verbose faults_spec detect_spec retry_spec
      watchdog_spec csv fingerprint =
    setup_logs verbose;
    match (make_topology topo_kind racks servers cst cta fat_k ports levels,
           parse_algorithms algs, parse_faults faults_spec, parse_watchdog watchdog_spec,
           parse_profile profile_spec, (parse_detect detect_spec, parse_retry retry_spec))
    with
    | Error e, _, _, _, _, _
    | _, Error e, _, _, _, _
    | _, _, Error e, _, _, _
    | _, _, _, Error e, _, _
    | _, _, _, _, Error e, _
    | _, _, _, _, _, (Error e, _)
    | _, _, _, _, _, (_, Error e) -> `Error (false, e)
    | Ok topo, Ok names, Ok faults, Ok watchdog, Ok profile, (Ok detector, Ok retry) ->
      (try
         let workload, header =
           match profile with
           | None ->
             let cfg =
               { Generator.num_tasks = tasks;
                 arrival_rate = rate;
                 chunk_size_mb = chunk;
                 code_mix = [ ((n, k), 1.) ];
                 deadline_factor = factor;
                 deadline_jitter = jitter;
                 placement = S3_storage.Placement.Rack_aware
               }
             in
             ( Generator.generate (Prng.create seed) topo cfg,
               Printf.sprintf "%d tasks, (%d,%d) code, %.0f MB chunks, rate %.3f/s" tasks
                 n k chunk rate )
           | Some s ->
             ( Profile.generate ~tasks (Prng.create seed) topo s,
               Printf.sprintf "%d tasks, %s" (Profile.task_count ~default:tasks s)
                 (Profile.to_string s) )
         in
         (* A profile implies its own foreground load; an explicit --fg
            still wins. *)
         let foreground =
           foreground_of
             (match profile with
              | Some s when fg <= 0. -> s.Profile.profile.Profile.fg_frac
              | _ -> fg)
         in
         let header =
           Printf.sprintf "%s | %s%s%s%s%s%s" (Topology.name topo) header
           (if cloud then " | emulated cloud" else "")
           (if Fault.is_empty faults then ""
            else Printf.sprintf " | faults: %s" (Fault.to_string faults))
           (match detector with
            | None -> ""
            | Some d -> Printf.sprintf " | detect: %s" (S3_fault.Detector.to_string d))
           (match retry with
            | None -> ""
            | Some r -> Printf.sprintf " | retry: %s" (S3_sim.Retry.to_string r))
           (match watchdog with
            | None -> ""
            | Some w -> Printf.sprintf " | watchdog: %s" (S3_sim.Watchdog.to_string w))
         in
         report ~header ~cloud ~foreground ~seed ~faults ?detector ?retry ?watchdog ?csv
           ~fingerprint topo names workload;
         `Ok ()
       with Invalid_argument m -> `Error (false, m))
  in
  let term =
    Term.(ret
            (const run $ topology_arg $ racks $ servers $ cst $ cta $ fat_k $ bcube_ports
             $ bcube_levels $ algorithms_arg $ tasks_arg $ rate_arg $ chunk_arg $ code_arg
             $ factor_arg $ jitter_arg $ profile_arg $ fg_arg $ seed_arg $ cloud_arg
             $ verbose_arg $ faults_arg $ detect_arg $ retry_arg $ watchdog_arg
             $ csv_arg $ fingerprint_arg))
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate a synthetic background-task workload.") term

(* ---- trace ---- *)

let trace_cmd =
  let file_arg =
    Arg.(value & opt (some file) None
         & info [ "file" ] ~doc:"Trace CSV (time,machine per line); synthetic if absent.")
  in
  let machines_arg = Arg.(value & opt int 30 & info [ "machines" ] ~doc:"Machines (synthetic).") in
  let tasks_arg = Arg.(value & opt int 3000 & info [ "tasks" ] ~doc:"Tasks (synthetic).") in
  let chunk_arg = Arg.(value & opt float 64. & info [ "chunk" ] ~doc:"Chunk size, MB.") in
  let factor_arg =
    Arg.(value & opt float 10. & info [ "deadline-factor" ] ~doc:"Deadline = factor x LRT.")
  in
  let run topo_kind racks servers cst cta fat_k ports levels algs file machines tasks chunk
      factor fg seed cloud verbose faults_spec detect_spec retry_spec watchdog_spec csv
      fingerprint =
    setup_logs verbose;
    match (make_topology topo_kind racks servers cst cta fat_k ports levels,
           parse_algorithms algs, parse_faults faults_spec, parse_watchdog watchdog_spec,
           (parse_detect detect_spec, parse_retry retry_spec))
    with
    | Error e, _, _, _, _
    | _, Error e, _, _, _
    | _, _, Error e, _, _
    | _, _, _, Error e, _
    | _, _, _, _, (Error e, _)
    | _, _, _, _, (_, Error e) -> `Error (false, e)
    | Ok topo, Ok names, Ok faults, Ok watchdog, (Ok detector, Ok retry) ->
      (try
         let g = Prng.create seed in
         let records =
           match file with
           | Some path ->
             let ic = open_in_bin path in
             let body = really_input_string ic (in_channel_length ic) in
             close_in ic;
             Trace.parse body
           | None -> Trace.synthetic g ~machines ~tasks
         in
         let workload =
           Trace.to_tasks g topo records ~chunk_size_mb:chunk ~deadline_factor:factor
         in
         let foreground = foreground_of fg in
         let header =
           Printf.sprintf "%s | %d trace records" (Topology.name topo) (List.length records)
         in
         report ~header ~cloud ~foreground ~seed ~faults ?detector ?retry ?watchdog ?csv
           ~fingerprint topo names workload;
         `Ok ()
       with
       | Invalid_argument m -> `Error (false, m)
       | Sys_error m -> `Error (false, m))
  in
  let term =
    Term.(ret
            (const run $ topology_arg $ racks $ servers $ cst $ cta $ fat_k $ bcube_ports
             $ bcube_levels $ algorithms_arg $ file_arg $ machines_arg $ tasks_arg $ chunk_arg
             $ factor_arg $ fg_arg $ seed_arg $ cloud_arg $ verbose_arg $ faults_arg
             $ detect_arg $ retry_arg $ watchdog_arg $ csv_arg
             $ fingerprint_arg))
  in
  Cmd.v (Cmd.info "trace" ~doc:"Simulate a Google-style arrival trace.") term

(* ---- matrix ---- *)

(* Axis parsers. Axis items are ';'-separated because profile specs use
   ',' internally ('db-oltp,scale=1.5;mixed-70-30'). *)
let axis_items s =
  String.split_on_char ';' s |> List.map String.trim |> List.filter (fun i -> i <> "")

let rec collect f = function
  | [] -> Ok []
  | x :: rest -> (
    match f x with
    | Error _ as e -> e
    | Ok y -> ( match collect f rest with Ok ys -> Ok (y :: ys) | Error _ as e -> e))

let parse_profile_axis s =
  match axis_items s with
  | [] -> Error "matrix: empty profile axis"
  | items -> collect Profile.of_string items

let parse_code_axis s =
  match axis_items s with
  | [] -> Error "matrix: empty code axis"
  | items ->
    collect
      (fun item ->
        match String.split_on_char ',' item |> List.map String.trim with
        | [ n; k ] -> (
          match (int_of_string_opt n, int_of_string_opt k) with
          | Some n, Some k when k > 0 && n >= k -> Ok (n, k)
          | Some _, Some _ -> Error (Printf.sprintf "matrix codes: (%s) needs N >= K >= 1" item)
          | _ -> Error (Printf.sprintf "matrix codes: %S is not N,K" item))
        | _ -> Error (Printf.sprintf "matrix codes: %S is not N,K" item))
      items

let parse_detect_axis s =
  match axis_items s with
  | [] -> Error "matrix: empty detector axis"
  | items ->
    collect
      (fun item ->
        if String.lowercase_ascii item = "off" then Ok ("off", None)
        else
          match S3_fault.Detector.of_string item with
          | Ok c -> Ok (item, Some c)
          | Error e -> Error e)
      items

let parse_topology_axis ~racks ~servers ~cst ~cta ~fat_k ~ports ~levels s =
  match axis_items s with
  | [] -> Error "matrix: empty topology axis"
  | items ->
    collect
      (fun kind ->
        (* Validate eagerly so a bad axis fails before any cell runs;
           the sweep jobs rebuild from the closure, never share this
           instance. *)
        match make_topology kind racks servers cst cta fat_k ports levels with
        | Error e -> Error ("matrix: " ^ e)
        | Ok _ ->
          Ok
            ( String.lowercase_ascii kind,
              fun () ->
                match make_topology kind racks servers cst cta fat_k ports levels with
                | Ok t -> t
                | Error e -> invalid_arg e ))
      items

let matrix_cmd =
  let profiles_arg =
    let doc =
      Printf.sprintf
        "';'-separated profile specs (NAME[,scale=F][,tasks=N]); profiles: %s."
        (String.concat ", " Profile.names)
    in
    Arg.(value & opt string (String.concat ";" Profile.names)
         & info [ "profiles" ] ~docv:"SPECS" ~doc)
  in
  let codes_arg =
    Arg.(value & opt string "6,4;9,6;12,8"
         & info [ "codes" ] ~docv:"N,K;..." ~doc:"';'-separated erasure codes.")
  in
  let topologies_arg =
    Arg.(value & opt string "two-tier"
         & info [ "topologies" ] ~docv:"KINDS"
             ~doc:"';'-separated topology kinds (shaped by the --racks/--fat-k/... flags).")
  in
  let tasks_arg =
    Arg.(value & opt int 60
         & info [ "tasks" ] ~doc:"Tasks per cell, for specs without their own tasks=N.")
  in
  let md_arg =
    Arg.(value & opt string "-"
         & info [ "md" ] ~docv:"FILE" ~doc:"Markdown report destination ('-' for stdout).")
  in
  let csv_out_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the per-cell CSV to $(docv) ('-' for stdout).")
  in
  let detect_axis_arg =
    Arg.(value & opt string "off"
         & info [ "detect" ] ~docv:"SPECS"
             ~doc:"';'-separated failure-detector axis: each item 'off' (omniscient) \
                   or a --detect spec such as 'latency=2'; every cell runs once per \
                   item, on the same workload. Pair with --faults.")
  in
  let run topo_racks topo_servers cst cta fat_k ports levels profiles codes topologies algs
      detect_axis faults_spec tasks seed md csv verbose =
    setup_logs verbose;
    match
      ( parse_profile_axis profiles,
        parse_code_axis codes,
        parse_topology_axis ~racks:topo_racks ~servers:topo_servers ~cst ~cta ~fat_k ~ports
          ~levels topologies,
        parse_algorithms algs,
        parse_detect_axis detect_axis,
        parse_faults faults_spec )
    with
    | Error e, _, _, _, _, _
    | _, Error e, _, _, _, _
    | _, _, Error e, _, _, _
    | _, _, _, Error e, _, _
    | _, _, _, _, Error e, _
    | _, _, _, _, _, Error e -> `Error (false, e)
    | Ok profiles, Ok codes, Ok topologies, Ok algorithms, Ok detectors, Ok faults -> (
      let axes =
        { Matrix.profiles; codes; topologies; algorithms; detectors; faults; tasks; seed }
      in
      try
        let cells = Matrix.run axes in
        let emit what path body =
          match path with
          | "-" -> print_string body
          | path ->
            let oc = open_out path in
            output_string oc body;
            close_out oc;
            Printf.printf "(%s written to %s)\n" what path
        in
        emit "markdown report" md (Matrix.markdown axes cells);
        (match csv with None -> () | Some path -> emit "csv" path (Matrix.csv cells));
        `Ok ()
      with Invalid_argument m -> `Error (false, m))
  in
  let term =
    Term.(ret
            (const run $ racks $ servers $ cst $ cta $ fat_k $ bcube_ports $ bcube_levels
             $ profiles_arg $ codes_arg $ topologies_arg $ algorithms_arg $ detect_axis_arg
             $ faults_arg $ tasks_arg $ seed_arg $ md_arg $ csv_out_arg $ verbose_arg))
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Sweep profile x erasure code x topology x algorithm; emit a summary report.")
    term

(* ---- example ---- *)

let example_cmd =
  let run () =
    let topo, tasks = S3_workload.Scenarios.fig1 () in
    report
      ~header:(Printf.sprintf "Fig. 1 example on %s" (Topology.name topo))
      ~cloud:false ~foreground:Foreground.none ~seed:0 topo [ "sp-ff"; "edf-cong"; "lpst" ] tasks;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "example" ~doc:"Replay the paper's Fig. 1 / Table 2 scenario.")
    Term.(ret (const run $ const ()))

(* ---- gen ---- *)

let gen_cmd =
  let machines_arg = Arg.(value & opt int 30 & info [ "machines" ] ~doc:"Machines.") in
  let tasks_arg = Arg.(value & opt int 1000 & info [ "tasks" ] ~doc:"Records.") in
  let run machines tasks seed =
    match Trace.synthetic (Prng.create seed) ~machines ~tasks with
    | records ->
      print_string (Trace.to_csv records);
      `Ok ()
    | exception Invalid_argument m -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a synthetic time,machine trace on stdout.")
    Term.(ret (const run $ machines_arg $ tasks_arg $ seed_arg))

let () =
  let doc = "joint scheduling and source selection for erasure-coded background traffic" in
  let info = Cmd.info "s3sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; trace_cmd; matrix_cmd; example_cmd; gen_cmd ]))
