(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe              run every experiment + the
                                           Bechamel micro-benchmark suite
     dune exec bench/main.exe -- fig3e     run selected experiments
     dune exec bench/main.exe -- micro     run only the Bechamel suite
     dune exec bench/main.exe -- bench     regression mode: Bechamel
                                           suite + fig5 scene engine
                                           runs, machine-readable
                                           results in BENCH_5.json
     dune exec bench/main.exe -- scale     scale mode: 1040-server
                                           leaf-spine, 1k/5k/10k active
                                           tasks, per-event plan time in
                                           BENCH_6.json
     dune exec bench/main.exe -- codec     codec mode: RS
                                           encode/decode/reconstruct
                                           MB/s per kernel and chunk
                                           size in BENCH_8.json
     dune exec bench/main.exe -- matrix    matrix mode: the full
                                           6-profile x 3-code scenario
                                           matrix, sequential vs
                                           parallel wall clock and the
                                           report fingerprint in
                                           BENCH_9.json
     dune exec bench/main.exe -- detect    detection mode: crash-storm
                                           scenes swept over failure-
                                           detector latencies (off vs
                                           0/2/10 s) with the resume-
                                           enabled retry policy, plus
                                           the 10k-task spawn-pressure
                                           scene timing the lazy
                                           Phase-I view, in
                                           BENCH_10.json

   See bench/experiments.ml for the per-figure regenerators and
   EXPERIMENTS.md for paper-vs-measured. *)

open Bechamel
open Toolkit

let plan_tests =
  (* One Test per evaluation artifact: the kernel each table/figure
     exercises, measured precisely. Fig. 5 is itself a timing study, so
     its indexed tests double as its data source. *)
  let scene m name = Staged.stage (Experiments.plan_computation ~m name) in
  [ Test.make ~name:"table2/lpst-example"
      (Staged.stage (fun () ->
           let topo, tasks = S3_workload.Scenarios.fig1 () in
           ignore (S3_sim.Engine.run topo (S3_core.Registry.make "lpst") tasks)));
    Test.make_indexed ~name:"fig5/lpst" ~args:Experiments.fig5_sizes (fun m -> scene m "lpst");
    Test.make_indexed ~name:"fig5/lpall" ~args:Experiments.fig5_sizes (fun m -> scene m "lpall");
    Test.make ~name:"plan/fifo" (scene 100 "fifo");
    Test.make ~name:"plan/disedf" (scene 100 "disedf");
    Test.make ~name:"plan/lpst" (scene 100 "lpst");
    Test.make ~name:"plan/lpall" (scene 100 "lpall")
  ]

let micro_tests =
  let lp_problem n =
    (* A packing LP shaped like Phase III: n flows, n/3 entities. *)
    let g = S3_util.Prng.create (n + 3) in
    let constrs =
      List.init (max 1 (n / 3)) (fun _ ->
          let coeffs =
            List.filteri (fun _ _ -> S3_util.Prng.bool g) (List.init n (fun j -> (j, 1.)))
          in
          { S3_lp.Lp.coeffs = (if coeffs = [] then [ (0, 1.) ] else coeffs); bound = 500. })
    in
    S3_lp.Lp.make ~nvars:n ~objective:(Array.make n 1.) constrs
  in
  let p60 = lp_problem 60 in
  let rs = S3_storage.Reed_solomon.make ~n:9 ~k:6 in
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let shards = S3_storage.Reed_solomon.encode rs data in
  let six =
    List.filteri
      (fun i _ -> i <> 2 && i <> 4 && i <> 7)
      (Array.to_list (Array.mapi (fun i s -> (i, s)) shards))
  in
  [ Test.make ~name:"lp/simplex-60" (Staged.stage (fun () -> ignore (S3_lp.Lp.solve p60)));
    Test.make ~name:"rs/encode-9_6-4KB"
      (Staged.stage (fun () -> ignore (S3_storage.Reed_solomon.encode rs data)));
    Test.make ~name:"rs/reconstruct-9_6-4KB"
      (Staged.stage (fun () -> ignore (S3_storage.Reed_solomon.reconstruct rs ~index:2 six)))
  ]

(* Runs the Bechamel suite, prints a table, and returns the sorted
   (kernel name, ns/run) rows for the regression mode. *)
let run_bechamel () =
  print_endline "\n=== Bechamel micro-benchmarks (OLS estimate, monotonic clock) ===";
  let tests = Test.make_grouped ~name:"s3" (plan_tests @ micro_tests) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with
          | Some [ v ] -> v
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let pretty_rows =
    List.map
      (fun (name, ns) ->
        let pretty =
          if Float.is_nan ns then "n/a"
          else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        [ name; pretty ])
      rows
  in
  print_endline
    (S3_util.Table.render ~align:[ S3_util.Table.Left; S3_util.Table.Right ]
       ~header:[ "benchmark"; "time/run" ] pretty_rows);
  rows

(* Regression mode: microbenchmark ns/run per kernel plus end-to-end
   plan-time accounting from full engine runs on the fig5 burst scenes,
   dumped as JSON so a driver can diff runs mechanically. *)
let bench_json_file = "BENCH_5.json"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The commit the regression numbers belong to, read straight from
   .git (no subprocess): HEAD is either a detached hash or a "ref: "
   line pointing at a per-branch file. *)
let git_rev () =
  let read path = String.trim (In_channel.with_open_text path In_channel.input_all) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "unknown"
  | head -> (
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      match read (Filename.concat ".git" (String.trim r)) with
      | rev -> rev
      | exception Sys_error _ -> "unknown")
    | _ -> head)

(* Parallel-vs-sequential wall clock on the self-contained scenario
   sweep: the same replications once on 1 domain and once on the
   configured pool, with the fingerprint comparison proving the
   reports are byte-identical. *)
let sweep_pair () =
  print_endline "\n=== sweep: parallel vs sequential (wall clock) ===";
  let jobs = 8 in
  let domains = S3_par.Sweep.domain_count () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, seq_s = timed (fun () -> Experiments.sweep_fingerprints ~domains:1 jobs) in
  let par, par_s = timed (fun () -> Experiments.sweep_fingerprints ~domains jobs) in
  let deterministic = seq = par in
  Printf.printf
    "%d jobs: sequential %.3fs, parallel %.3fs on %d domains (speedup %.2fx), \
     deterministic=%b\n%!"
    jobs seq_s par_s domains (seq_s /. par_s) deterministic;
  (jobs, domains, seq_s, par_s, deterministic)

let run_bench () =
  let micro = run_bechamel () in
  print_endline "\n=== fig5 scene engine runs (plan-time accounting) ===";
  let scenes =
    List.concat_map
      (fun name ->
        List.map
          (fun m ->
            let r = Experiments.plan_scene_run ~m name in
            Printf.printf "%s m=%d: plan_time=%.4fs plan_calls=%d\n%!" name m
              r.S3_sim.Metrics.plan_time r.S3_sim.Metrics.plan_calls;
            (name, m, r.S3_sim.Metrics.plan_time, r.S3_sim.Metrics.plan_calls,
             S3_sim.Report.fingerprint r))
          [ 50; 100 ])
      [ "fifo"; "disedf"; "lpst"; "lpall" ]
  in
  print_endline "\n=== storm scenes (degradation storm, watchdog off/on) ===";
  let storms =
    List.concat_map
      (fun watchdog ->
        List.map
          (fun m ->
            let r =
              if watchdog then
                Experiments.storm_scene_run ~watchdog:S3_sim.Watchdog.default ~m "lpst"
              else Experiments.storm_scene_run ~m "lpst"
            in
            Printf.printf
              "lpst m=%d watchdog=%b: plan_time=%.4fs rescued=%d shed=%d\n%!" m watchdog
              r.S3_sim.Metrics.plan_time r.S3_sim.Metrics.tasks_rescued
              r.S3_sim.Metrics.tasks_shed_early;
            (m, watchdog, r))
          [ 50; 100 ])
      [ false; true ]
  in
  let jobs, domains, seq_s, par_s, deterministic = sweep_pair () in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"meta\": { \"git_rev\": \"%s\", \"ocaml\": \"%s\", \"domains\": %d },\n"
       (json_escape (git_rev ()))
       (json_escape Sys.ocaml_version)
       domains);
  Buffer.add_string b
    (Printf.sprintf
       "  \"sweep\": { \"jobs\": %d, \"domains\": %d, \"sequential_s\": %.6f, \
        \"parallel_s\": %.6f, \"speedup\": %.4f, \"deterministic\": %b },\n"
       jobs domains seq_s par_s (seq_s /. par_s) deterministic);
  Buffer.add_string b "  \"micro_ns_per_run\": {\n";
  List.iteri
    (fun i (name, ns) ->
      Buffer.add_string b
        (Printf.sprintf "    \"%s\": %s%s\n" (json_escape name)
           (if Float.is_nan ns then "null" else Printf.sprintf "%.2f" ns)
           (if i < List.length micro - 1 then "," else "")))
    micro;
  Buffer.add_string b "  },\n  \"scenes\": [\n";
  List.iteri
    (fun i (name, m, plan_time, plan_calls, fp) ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"algorithm\": \"%s\", \"tasks\": %d, \"plan_time_s\": %.6f, \
            \"plan_calls\": %d, \"fingerprint\": \"%s\" }%s\n"
           (json_escape name) m plan_time plan_calls (json_escape fp)
           (if i < List.length scenes - 1 then "," else "")))
    scenes;
  Buffer.add_string b "  ],\n  \"storms\": [\n";
  List.iteri
    (fun i (m, watchdog, r) ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"algorithm\": \"lpst\", \"tasks\": %d, \"watchdog\": %b, \
            \"plan_time_s\": %.6f, \"plan_calls\": %d, \"swaps\": %d, \"rescued\": %d, \
            \"shed\": %d, \"fingerprint\": \"%s\" }%s\n"
           m watchdog r.S3_sim.Metrics.plan_time r.S3_sim.Metrics.plan_calls
           r.S3_sim.Metrics.swaps_successful r.S3_sim.Metrics.tasks_rescued
           r.S3_sim.Metrics.tasks_shed_early
           (json_escape (S3_sim.Report.fingerprint r))
           (if i < List.length storms - 1 then "," else "")))
    storms;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out bench_json_file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n" bench_json_file

(* Scale mode: the engine on a 1040-server leaf-spine with 1k/5k/10k
   simultaneously active tasks, per-event plan time and Phase I
   (select_sources) time recorded to BENCH_6.json. *)
let scale_json_file = "BENCH_6.json"

let run_scale () =
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  print_endline "\n=== scale scenes (leaf-spine, 1040 servers) ===";
  let scenes =
    List.map
      (fun m ->
        let alg = S3_core.Registry.make "lpst" in
        let select_calls = ref 0 and select_s = ref 0. in
        let alg =
          { alg with
            S3_core.Algorithm.select_sources =
              (fun v t ->
                let r, dt = timed (fun () -> alg.S3_core.Algorithm.select_sources v t) in
                incr select_calls;
                select_s := !select_s +. dt;
                r)
          }
        in
        let r, wall = timed (fun () -> Experiments.scale_scene_run ~m alg) in
        let per_event_us =
          1e6 *. r.S3_sim.Metrics.plan_time /. float_of_int (max 1 r.S3_sim.Metrics.plan_calls)
        in
        Printf.printf
          "lpst m=%d: events=%d plan_calls=%d plan_time=%.3fs per_event=%.1fus \
           select_calls=%d select=%.3fs wall=%.2fs\n%!"
          m r.S3_sim.Metrics.events r.S3_sim.Metrics.plan_calls r.S3_sim.Metrics.plan_time
          per_event_us !select_calls !select_s wall;
        (m, r, per_event_us, (!select_calls, !select_s), wall))
      [ 1000; 5000; 10000 ]
  in
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"meta\": { \"git_rev\": \"%s\", \"ocaml\": \"%s\" },\n"
       (json_escape (git_rev ()))
       (json_escape Sys.ocaml_version));
  Buffer.add_string b "  \"scenes\": [\n";
  List.iteri
    (fun i (m, r, per_event_us, (select_calls, select_s), wall) ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"algorithm\": \"lpst\", \"servers\": %d, \"tasks\": %d, \"events\": %d, \
            \"plan_calls\": %d, \"plan_time_s\": %.6f, \"per_event_plan_us\": %.2f, \
            \"select_calls\": %d, \"select_s\": %.6f, \"wall_s\": %.3f, \
            \"fingerprint\": \"%s\" }%s\n"
           (S3_net.Topology.servers (Experiments.scale_topo ()))
           m r.S3_sim.Metrics.events r.S3_sim.Metrics.plan_calls r.S3_sim.Metrics.plan_time
           per_event_us select_calls select_s wall
           (json_escape (S3_sim.Report.fingerprint r))
           (if i < List.length scenes - 1 then "," else "")))
    scenes;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out scale_json_file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n" scale_json_file

(* Codec mode: encode/decode/reconstruct throughput of the striped RS
   data path at storage-realistic chunk sizes, for both kernels, plus a
   parallel-vs-sequential striped encode pair. MB/s figures land in
   BENCH_8.json for the CI regression gate. *)
let codec_json_file = "BENCH_8.json"

module Rs = S3_storage.Reed_solomon

(* Calibrate repetitions to a ~25 ms batch, then take the best of three
   batches: robust to scheduler noise without pinning anything. *)
let time_mbps ~bytes f =
  let rec calib reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= 0.025 || reps >= 1 lsl 20 then (reps, dt) else calib (reps * 2)
  in
  let reps, first = calib 1 in
  let best = ref first in
  for _ = 2 to 3 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  float_of_int (bytes * reps) /. (!best *. 1e6)

let codec_codes = [ (9, 6); (6, 4); (12, 8) ]
let codec_chunks = [ 64 * 1024; 1024 * 1024; 8 * 1024 * 1024 ]

(* The 1MB column carries the table-kernel reference for the
   speedup/regression gate; running the byte-wise oracle at 8MB would
   only slow CI down without adding information. *)
let codec_kernels_for chunk =
  if chunk = 1024 * 1024 then [ Rs.Schedule; Rs.Table ] else [ Rs.Schedule ]

let run_codec () =
  print_endline "\n=== codec throughput (striped RS data path) ===";
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      let c = Rs.make ~n ~k in
      List.iter
        (fun chunk ->
          let g = S3_util.Prng.create (n + (64 * k) + chunk) in
          let data = Bytes.init chunk (fun _ -> Char.chr (S3_util.Prng.int g 256)) in
          let shards = Rs.encode c data in
          let indexed = Array.to_list (Array.mapi (fun i s -> (i, s)) shards) in
          (* Parity-heavy survivor set: the decode worst case (a full
             inverse application, no identity rows). *)
          let survivors = List.filteri (fun i _ -> i >= n - k) indexed in
          let with_loss = List.filter (fun (i, _) -> i <> 0) indexed in
          let decode_subset = List.filteri (fun i _ -> i < k) with_loss in
          List.iter
            (fun kernel ->
              let cell op f =
                let mbps = time_mbps ~bytes:chunk f in
                Printf.printf "%s (%d,%d) %dKB %s: %.1f MB/s\n%!" op n k (chunk / 1024)
                  (Rs.kernel_name kernel) mbps;
                rows := (op, n, k, chunk, Rs.kernel_name kernel, mbps) :: !rows
              in
              cell "encode" (fun () -> ignore (Rs.encode ~kernel c data));
              cell "decode" (fun () -> ignore (Rs.decode ~kernel c survivors));
              cell "reconstruct" (fun () ->
                  ignore (Rs.reconstruct ~kernel c ~index:0 decode_subset)))
            (codec_kernels_for chunk))
        codec_chunks)
    codec_codes;
  (* Deterministic multi-domain striping: same bytes, more domains. *)
  print_endline "\n=== striped encode: parallel vs sequential ===";
  let n, k = (9, 6) in
  let c = Rs.make ~n ~k in
  let chunk = 8 * 1024 * 1024 in
  let g = S3_util.Prng.create 42 in
  let data = Bytes.init chunk (fun _ -> Char.chr (S3_util.Prng.int g 256)) in
  let domains = S3_par.Sweep.domain_count () in
  let seq = Rs.encode_stripes ~domains:1 c data in
  let par = Rs.encode_stripes ~domains c data in
  let identical =
    Array.length seq = Array.length par
    && Array.for_all2 Bytes.equal seq par
  in
  let seq_mbps = time_mbps ~bytes:chunk (fun () -> ignore (Rs.encode_stripes ~domains:1 c data)) in
  let par_mbps = time_mbps ~bytes:chunk (fun () -> ignore (Rs.encode_stripes ~domains c data)) in
  Printf.printf
    "striped encode (9,6) 8MB: sequential %.1f MB/s, parallel %.1f MB/s on %d domains, \
     identical=%b\n%!"
    seq_mbps par_mbps domains identical;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"meta\": { \"git_rev\": \"%s\", \"ocaml\": \"%s\", \"packet_bytes\": %d },\n"
       (json_escape (git_rev ()))
       (json_escape Sys.ocaml_version)
       Rs.default_packet_bytes);
  Buffer.add_string b "  \"codec\": [\n";
  let rows = List.rev !rows in
  List.iteri
    (fun i (op, n, k, chunk, kernel, mbps) ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"op\": \"%s\", \"n\": %d, \"k\": %d, \"chunk_bytes\": %d, \
            \"kernel\": \"%s\", \"mbps\": %.2f }%s\n"
           op n k chunk kernel mbps
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string b
    (Printf.sprintf
       "  ],\n  \"striped\": { \"n\": %d, \"k\": %d, \"chunk_bytes\": %d, \"domains\": %d, \
        \"sequential_mbps\": %.2f, \"parallel_mbps\": %.2f, \"identical\": %b }\n}\n"
       n k chunk domains seq_mbps par_mbps identical);
  let oc = open_out codec_json_file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n" codec_json_file

(* Matrix mode: the full scenario matrix — every named profile against
   every EC mix — timed once sequentially and once on the configured
   domain pool, with the report fingerprint proving both sweeps (and
   any CI rerun) produce the identical artifact. *)
let matrix_json_file = "BENCH_9.json"

module Matrix = S3_sim.Matrix
module Profile = S3_workload.Profile

let matrix_axes () =
  { Matrix.profiles = List.map (fun p -> Profile.spec p) Profile.all;
    codes = [ (6, 4); (9, 6); (12, 8) ];
    topologies =
      [ ("two-tier",
         fun () ->
           S3_net.Topology.two_tier ~racks:3 ~servers_per_rack:10 ~cst:500. ~cta:1500.) ];
    algorithms = [ "edf"; "lpst" ];
    detectors = [ ("off", None) ];
    faults = S3_fault.Fault.empty;
    tasks = 40;
    seed = 11
  }

let run_matrix () =
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let axes = matrix_axes () in
  let cells = Matrix.cell_count axes in
  let domains = S3_par.Sweep.domain_count () in
  print_endline "\n=== scenario matrix (6 profiles x 3 codes x 2 algorithms) ===";
  let seq, seq_s = timed (fun () -> Matrix.run ~domains:1 axes) in
  let par, par_s = timed (fun () -> Matrix.run ~domains axes) in
  let fp_seq = Matrix.report_fingerprint seq in
  let fp_par = Matrix.report_fingerprint par in
  let deterministic = String.equal fp_seq fp_par in
  Printf.printf
    "%d cells: sequential %.3fs, parallel %.3fs on %d domains (speedup %.2fx), \
     deterministic=%b\nreport fingerprint: %s\n%!"
    cells seq_s par_s domains (seq_s /. par_s) deterministic fp_seq;
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"meta\": { \"git_rev\": \"%s\", \"ocaml\": \"%s\", \"domains\": %d },\n"
       (json_escape (git_rev ()))
       (json_escape Sys.ocaml_version)
       domains);
  Buffer.add_string b
    (Printf.sprintf
       "  \"matrix\": { \"cells\": %d, \"tasks_per_cell\": %d, \"seed\": %d, \
        \"sequential_s\": %.6f, \"parallel_s\": %.6f, \"speedup\": %.4f, \
        \"deterministic\": %b, \"report_fingerprint\": \"%s\" },\n"
       cells axes.Matrix.tasks axes.Matrix.seed seq_s par_s (seq_s /. par_s) deterministic
       (json_escape fp_seq));
  Buffer.add_string b "  \"cells\": [\n";
  List.iteri
    (fun i (c : Matrix.cell) ->
      let n, k = c.Matrix.code in
      let m = c.Matrix.run in
      Buffer.add_string b
        (Printf.sprintf
           "    { \"profile\": \"%s\", \"n\": %d, \"k\": %d, \"algorithm\": \"%s\", \
            \"seed\": %d, \"completed\": %d, \"tasks\": %d, \"fingerprint\": \"%s\" }%s\n"
           (json_escape c.Matrix.spec.Profile.profile.Profile.name)
           n k (json_escape c.Matrix.algorithm) c.Matrix.cell_seed
           (S3_sim.Metrics.completed m)
           (List.length m.S3_sim.Metrics.outcomes)
           (json_escape (S3_sim.Report.fingerprint m))
           (if i < List.length seq - 1 then "," else "")))
    seq;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out matrix_json_file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n" matrix_json_file

(* Detection mode: the crash-storm scenes swept over detector
   latencies (BENCH_10.json). Two properties are runner-independent
   and gated in CI: the detection-off run must carry the identical
   fingerprint to the zero-latency detector run once the detection
   counters are scrubbed (the "omniscient equivalence" the test suite
   pins on chaos scenarios, here on the bench workload), and nonzero
   latency must strand partial progress that the resume-enabled retry
   policy then recovers (bytes_resumed > 0). The spawn-pressure scene
   times the lazy Phase-I view at 10k staggered arrivals; its
   per-event wall time is compared against the cached baseline. *)
let detect_json_file = "BENCH_10.json"

let run_detect () =
  let module Metrics = S3_sim.Metrics in
  let module Report = S3_sim.Report in
  let module Detector = S3_fault.Detector in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let scrub (r : Metrics.run) =
    Report.fingerprint
      { r with Metrics.suspicions = 0; false_suspicions = 0; detections = 0 }
  in
  let m = 100 in
  let retry = S3_sim.Retry.default in
  print_endline "\n=== detection-storm scenes (crash storm, detector latency sweep) ===";
  let scenes =
    List.map
      (fun (label, latency) ->
        let detector =
          Option.map (fun l -> Detector.v ~suspect:l ~confirm:0. ()) latency
        in
        let r, wall =
          timed (fun () -> Experiments.detect_storm_scene_run ?detector ~retry ~m "lpst")
        in
        Printf.printf
          "lpst m=%d detector=%s: completed=%d detections=%d resumed=%.0fMb \
           wasted=%.0fMb plan_time=%.4fs wall=%.2fs\n%!"
          m label (Metrics.completed r) r.Metrics.detections r.Metrics.bytes_resumed
          r.Metrics.wasted r.Metrics.plan_time wall;
        (label, r, wall))
      [ ("off", None); ("latency-0", Some 0.); ("latency-2", Some 2.);
        ("latency-10", Some 10.)
      ]
  in
  let find label = match List.find (fun (l, _, _) -> String.equal l label) scenes with
    | _, r, _ -> r
  in
  let fp_off = Report.fingerprint (find "off") in
  let fp_zero = scrub (find "latency-0") in
  let identical = String.equal fp_off fp_zero in
  Printf.printf "detection-off vs zero-latency (counters scrubbed): identical=%b\n%!"
    identical;
  print_endline "\n=== spawn-pressure scene (lazy Phase-I view, staggered arrivals) ===";
  let spawn_m = 10000 in
  let spawn_run, spawn_wall =
    timed (fun () -> Experiments.scale_spawn_scene_run ~m:spawn_m "lpst")
  in
  let per_event_wall_us =
    1e6 *. spawn_wall /. float_of_int (max 1 spawn_run.Metrics.events)
  in
  Printf.printf "lpst m=%d: events=%d wall=%.2fs per_event=%.1fus\n%!" spawn_m
    spawn_run.Metrics.events spawn_wall per_event_wall_us;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"meta\": { \"git_rev\": \"%s\", \"ocaml\": \"%s\" },\n"
       (json_escape (git_rev ()))
       (json_escape Sys.ocaml_version));
  Buffer.add_string b
    (Printf.sprintf
       "  \"identity\": { \"off_fingerprint\": \"%s\", \
        \"zero_latency_scrubbed\": \"%s\", \"identical\": %b },\n"
       (json_escape fp_off) (json_escape fp_zero) identical);
  Buffer.add_string b "  \"scenes\": [\n";
  List.iteri
    (fun i (label, (r : Metrics.run), wall) ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"detector\": \"%s\", \"tasks\": %d, \"completed\": %d, \
            \"detections\": %d, \"flows_killed\": %d, \"bytes_resumed_mb\": %.2f, \
            \"wasted_mb\": %.2f, \"plan_time_s\": %.6f, \"wall_s\": %.3f, \
            \"fingerprint\": \"%s\" }%s\n"
           (json_escape label) m (Metrics.completed r) r.Metrics.detections
           r.Metrics.flows_killed r.Metrics.bytes_resumed r.Metrics.wasted
           r.Metrics.plan_time wall
           (json_escape (Report.fingerprint r))
           (if i < List.length scenes - 1 then "," else "")))
    scenes;
  Buffer.add_string b
    (Printf.sprintf
       "  ],\n  \"spawn\": { \"servers\": %d, \"tasks\": %d, \"events\": %d, \
        \"completed\": %d, \"wall_s\": %.3f, \"per_event_wall_us\": %.2f, \
        \"fingerprint\": \"%s\" }\n}\n"
       (S3_net.Topology.servers (Experiments.scale_topo ()))
       spawn_m spawn_run.Metrics.events
       (Metrics.completed spawn_run)
       spawn_wall per_event_wall_us
       (json_escape (Report.fingerprint spawn_run)));
  let oc = open_out detect_json_file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n" detect_json_file

let () =
  let args = match Array.to_list Sys.argv with [] -> [] | _ :: rest -> rest in
  match args with
  | [] ->
    List.iter Experiments.run_experiment Experiments.all_ids;
    ignore (run_bechamel ())
  | ids ->
    List.iter
      (fun id ->
        match id with
        | "micro" -> ignore (run_bechamel ())
        | "bench" -> run_bench ()
        | "scale" -> run_scale ()
        | "codec" -> run_codec ()
        | "matrix" -> run_matrix ()
        | "detect" -> run_detect ()
        | id -> Experiments.run_experiment id)
      ids
