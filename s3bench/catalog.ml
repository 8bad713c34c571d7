(* Every metric the benchmark reports, with its unit and direction, and
   the rendering of BENCHMARK.json from it: this file and the
   workload list in workloads.ml are the single source of both. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** regression bound as a share of the parent's median; e2e only *)
}

let e name unit better bound = { name; unit; better; bound }
let l name unit better = { name; unit; better; bound = 0. }

(* Printed for every workload when the run is untraced. An operation
   is one scheduling event on the simulation workloads, one plan on
   fig5-plan and one sweep over every codec cell on codec-repair. *)
let end_to_end =
  [ e "wall_s" "s" Lower 0.25;
    e "ops_per_s" "1/s" Higher 0.25;
    e "op_p50_us" "us" Lower 0.25;
    e "op_p90_us" "us" Lower 0.25;
    e "peak_heap_mb" "MB" Lower 0.15;
    e "setup_s" "s" Lower 0.25
  ]

let codec_cells =
  List.concat_map
    (fun op ->
      List.concat_map
        (fun code ->
          List.map
            (fun size -> l (Printf.sprintf "storage.rs.%s.%s.%s.mbps" op code size) "MB/s" Higher)
            [ "64k"; "1m" ])
        [ "9_6"; "14_10" ])
    [ "encode"; "decode"; "reconstruct" ]

(* Printed for every workload when the run is traced; a layer a
   workload never calls reads 0. *)
let per_layer =
  [ l "setup.topology_ms" "ms" Lower;
    l "setup.generate_ms" "ms" Lower;
    l "core.select.calls" "count" Lower;
    l "core.select.self_s" "s" Lower;
    l "core.select.p50_us" "us" Lower;
    l "core.reselect.calls" "count" Lower;
    l "core.reselect.self_s" "s" Lower;
    l "core.allocate.calls" "count" Lower;
    l "core.allocate.self_s" "s" Lower;
    l "core.allocate.p50_us" "us" Lower;
    l "core.allocate.p99_us" "us" Lower;
    l "core.allocate.lp.self_s" "s" Lower;
    l "core.allocate.fill.self_s" "s" Lower;
    l "plan.create_us" "us" Lower;
    l "plan.m100.p50_us" "us" Lower;
    l "plan.m400.p50_us" "us" Lower;
    l "plan.m400.p95_us" "us" Lower;
    l "core.admit.m100.p50_us" "us" Lower;
    l "core.admit.m400.p50_us" "us" Lower;
    l "core.lp_allocate.m100.p50_us" "us" Lower;
    l "core.lp_allocate.m400.p50_us" "us" Lower;
    l "core.split_coverage" "ratio" Higher;
    l "sim.wall_s" "s" Lower;
    l "sim.engine.self_s" "s" Lower;
    l "sim.engine.self_us_per_event" "us" Lower;
    l "sim.event.p50_us" "us" Lower;
    l "sim.event.p99_us" "us" Lower;
    l "sim.engine.events" "count" Lower;
    l "sim.engine.plan_calls" "count" Lower;
    l "sim.engine.clamp_events" "count" Lower;
    l "sim.plan_time_s" "s" Lower;
    l "sim.deadline_hit_frac" "ratio" Higher;
    l "sim.wasted_frac" "ratio" Lower;
    l "sim.watchdog.swaps_attempted" "count" Lower;
    l "sim.watchdog.swaps_successful" "count" Higher;
    l "sim.watchdog.shed" "count" Lower;
    l "sim.retry.attempted" "count" Lower;
    l "sim.retry.exhausted" "count" Lower;
    l "sim.bytes_resumed_mb" "Mb" Higher;
    l "fault.flows_killed" "count" Lower;
    l "fault.tasks_rehomed" "count" Higher;
    l "fault.tasks_lost" "count" Lower;
    l "fault.suspicions" "count" Lower;
    l "fault.detections" "count" Lower
  ]
  @ codec_cells
  @ [ l "storage.rs.encode.mbps" "MB/s" Higher;
      l "storage.rs.decode.mbps" "MB/s" Higher;
      l "storage.rs.reconstruct.mbps" "MB/s" Higher;
      l "par.stripes.d2.mbps" "MB/s" Higher;
      l "par.stripes.speedup" "ratio" Higher;
      l "runtime.minor_words_m" "Mwords" Lower;
      l "runtime.major_collections" "count" Lower;
      l "op.samples" "count" Higher;
      l "trace.overhead_frac" "ratio" Lower
    ]

let command = [ "bash"; "s3bench/run.sh" ]
let paths = [ "s3bench" ]
let run_seconds = 15

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let better_string = function Lower -> "lower" | Higher -> "higher"

let benchmark_json ~workloads =
  let list items = String.concat ",\n" (List.map (fun s -> "    " ^ s) items) in
  let strings xs = String.concat ", " (List.map json_string xs) in
  let metric ~with_bound m =
    Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s%s}" (json_string m.name)
      (json_string m.unit)
      (json_string (better_string m.better))
      (if with_bound then Printf.sprintf ", \"bound\": %g" m.bound else "")
  in
  String.concat ""
    [ "{\n";
      Printf.sprintf "  \"command\": [%s],\n" (strings command);
      Printf.sprintf "  \"paths\": [%s],\n" (strings paths);
      Printf.sprintf "  \"run_seconds\": %d,\n" run_seconds;
      "  \"workloads\": [\n";
      list
        (List.map
           (fun (name, why) ->
             Printf.sprintf "{\"name\": %s, \"why\": %s}" (json_string name) (json_string why))
           workloads);
      "\n  ],\n  \"end_to_end\": [\n";
      list (List.map (metric ~with_bound:true) end_to_end);
      "\n  ],\n  \"per_layer\": [\n";
      list (List.map (metric ~with_bound:false) per_layer);
      "\n  ]\n}\n"
    ]
