(* The repository's benchmark: six pinned workloads, end-to-end metrics
   from untraced passes, per-layer metrics from the fastest traced
   pass. See README.md.

   Usage (from the repository root):
     bash s3bench/run.sh [--workload W]... [--seed N] [--seconds S | --repeat R]
                         [--trace 0|1]
     bash s3bench/run.sh --smoke
     bash s3bench/run.sh --benchmark-json > BENCHMARK.json

   Each pass runs in a fresh child process of this executable, one at a
   time, so heap growth and route caches are paid per pass as an
   [s3sim] user pays them. A workload gets R untraced passes (default
   5), or with [--seconds S] as many as fit in S seconds; unless
   [--trace 0] is given a traced pass follows each untraced one.
   [--trace 0] reports only the end-to-end metrics, [--trace 1] only
   the per-layer ones (its untraced passes give the trace overhead),
   and leaving it out reports both. The last line of standard output
   is one JSON object per workload:
     {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
   The workload seed (default 0) reaches only the input generators;
   seed 0 passes must reproduce the pinned fingerprint. *)

module W = Workloads

(* ------------------------------------------------------------------ *)
(* One pass, in the child process.                                      *)

type pass = {
  wall_s : float;
  setup_s : float;  (** median of the set-up repetitions *)
  heap_mb : float;
  op_ns : int array;
  attempted : int;
  failed : int;
  failures : string list;
  fingerprint : string;
  layers : (string * float) list;  (** traced pass only *)
  spans : string option;  (** where a traced pass wrote its spans *)
}

let setup_reps = 7

let median = W.percentile 50.

let child ~workload ~seed ~traced ~scale ~spans =
  let w = Option.get (W.find workload) in
  let span = if traced then Some (Span.create ()) else None in
  let ctx = W.make_ctx ?span ~scale () in
  let prepared, first_setup = W.timed (fun () -> w.W.setup ~seed ctx) in
  let gc0 = Gc.quick_stat () in
  let t0 = Span.now_ns () in
  prepared.W.run ctx;
  let t1 = Span.now_ns () in
  let gc1 = Gc.quick_stat () in
  let wall_s = float_of_int (t1 - t0) *. 1e-9 in
  if traced then prepared.W.extra ctx;
  (* The remaining set-up repetitions run after the pass so that their
     garbage does not count towards the pass's peak heap. *)
  let more = List.init (setup_reps - 1) (fun _ -> W.timed (fun () -> w.W.setup ~seed ctx)) in
  let all = (prepared, first_setup) :: more in
  let layers =
    match span with
    | None -> []
    | Some sp ->
      Option.iter (fun path -> Span.write_jsonl sp ~path ~root_start:t0 ~root_stop:t1) spans;
      W.per_layer ctx ~wall:wall_s
      @ [ ("setup.topology_ms", 1e3 *. median (List.map (fun (p, _) -> p.W.topology_s) all));
          ("setup.generate_ms", 1e3 *. median (List.map (fun (p, _) -> p.W.generate_s) all));
          ("runtime.minor_words_m", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
          ("runtime.major_collections",
           float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
        ]
  in
  { wall_s;
    setup_s = median (List.map snd all);
    heap_mb =
      float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. float_of_int (1 lsl 20);
    op_ns = Array.of_list (List.rev ctx.W.op_ns);
    attempted = ctx.W.attempted;
    failed = ctx.W.failed;
    failures = List.rev ctx.W.failures;
    fingerprint = W.fingerprint ctx;
    layers;
    spans
  }

(* ------------------------------------------------------------------ *)
(* The harness, in the parent process.                                  *)

let spawn ~workload ~seed ~traced ~scale ~spans =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; workload; "--seed"; string_of_int seed;
      "--trace"; (if traced then "1" else "0"); "--scale"; Printf.sprintf "%h" scale ]
    @ match spans with None -> [] | Some p -> [ "--spans"; p ]
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  set_binary_mode_in ic true;
  let result = try Ok (input_value ic : pass) with e -> Error (Printexc.to_string e) in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  match (status, result) with
  | Unix.WEXITED 0, Ok p -> Ok p
  | Unix.WEXITED 0, Error e -> Error ("unreadable pass result: " ^ e)
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
    Error (Printf.sprintf "pass process ended with status %d" c)

type plan = {
  seed : int;
  seconds : float option;
  repeat : int;
  trace : bool option;  (** [None]: report both metric sets *)
  scale : float;
}

let now () = Unix.gettimeofday ()

let trace_dir = Filename.concat "s3bench" "traces"

let trace_file (w : W.t) plan suffix =
  Filename.concat trace_dir (Printf.sprintf "%s-seed%d%s.jsonl" w.W.name plan.seed suffix)

(* Untraced passes, alternating with traced ones when per-layer
   metrics are wanted (the traced passes need untraced neighbours to
   measure their overhead against). Stops after [repeat] untraced
   passes, or when one more pass would overrun the time budget. *)
let run_passes plan (w : W.t) =
  let want_traced = plan.trace <> Some false in
  if want_traced && not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let start = now () in
  let took = ref [] in
  let one traced k =
    let t = now () in
    let spans = if traced then Some (trace_file w plan (Printf.sprintf ".%d" k)) else None in
    let r = spawn ~workload:w.W.name ~seed:plan.seed ~traced ~scale:plan.scale ~spans in
    took := (now () -. t) :: !took;
    (traced, r)
  in
  let more k =
    match plan.seconds with
    | None -> k < plan.repeat
    | Some budget -> k = 0 || now () -. start +. (1.1 *. median !took) <= budget
  in
  let rec loop acc k =
    if not (more k) then List.rev acc
    else begin
      let acc = one false k :: acc in
      let acc = if want_traced && more k then one true k :: acc else acc in
      loop acc (k + 1)
    end
  in
  let passes = loop [] 0 in
  if want_traced && not (List.exists fst passes) then passes @ [ one true 0 ] else passes

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (Catalog.metric * float) list;
  notes : string list;
}

let quartiles xs = (W.percentile 25. xs, median xs, W.percentile 75. xs)

let minimum = List.fold_left Float.min infinity

(* Every pass replays the same operations, so the i-th operation is the
   same work in each; its fastest replay is its latency on an
   undisturbed machine. *)
let fastest_replays passes =
  match passes with
  | [] -> []
  | first :: _ ->
    let n = List.fold_left (fun n p -> min n (Array.length p.op_ns)) (Array.length first.op_ns) passes in
    List.init n (fun i -> W.us_of_ns (List.fold_left (fun m p -> min m p.op_ns.(i)) max_int passes))

(* Timings are taken per operation from its fastest replay, and the
   pass wall time is the sum of those: a shared machine's speed can
   change in steps of up to 1.7x every few seconds, and an operation's
   fastest of several replays is the estimate that is stable under
   that. Set-up is the median of each pass's repetitions, lowest over
   passes. *)
let summarize plan (w : W.t) results =
  let notes = ref [] and failed = ref 0 and attempted = ref 0 in
  let problem msg =
    incr failed;
    notes := msg :: !notes
  in
  let ok =
    List.filter_map
      (fun (traced, r) ->
        match r with
        | Ok (p : pass) ->
          attempted := !attempted + p.attempted;
          failed := !failed + p.failed;
          notes := List.rev_append p.failures !notes;
          Some (traced, p)
        | Error e ->
          incr attempted;
          problem e;
          None)
      results
  in
  let untraced = List.filter_map (fun (t, p) -> if t then None else Some p) ok in
  let traced = List.filter_map (fun (t, p) -> if t then Some p else None) ok in
  (* Determinism across processes, the traced passes included, and the
     pinned fingerprint at the default seed. *)
  (match ok with
  | (_, first) :: rest ->
    List.iter
      (fun (_, p) ->
        if not (String.equal p.fingerprint first.fingerprint) then
          problem (Printf.sprintf "fingerprint %s differs from %s" p.fingerprint first.fingerprint))
      rest;
    if plan.seed = 0 && Float.equal plan.scale 1. && w.W.pinned <> ""
       && not (String.equal first.fingerprint w.W.pinned)
    then problem (Printf.sprintf "fingerprint %s, pinned %s" first.fingerprint w.W.pinned);
    notes := Printf.sprintf "fingerprint %s" first.fingerprint :: !notes
  | [] -> ());
  let samples = fastest_replays untraced in
  let walls = List.map (fun p -> p.wall_s) untraced in
  let best_wall = minimum walls in
  let replay_wall = List.fold_left ( +. ) 0. samples /. 1e6 in
  let e2e =
    [ ("wall_s", replay_wall);
      ("ops_per_s", W.ratio (float_of_int (List.length samples)) replay_wall);
      ("op_p50_us", W.percentile 50. samples);
      ("op_p90_us", W.percentile 90. samples);
      ("peak_heap_mb", median (List.map (fun p -> p.heap_mb) untraced));
      ("setup_s", minimum (List.map (fun p -> p.setup_s) untraced))
    ]
  in
  let layers =
    match List.sort (fun a b -> Float.compare a.wall_s b.wall_s) traced with
    | [] -> []
    | best :: others ->
      (* Keep the spans of the pass the layer metrics come from. *)
      List.iter (fun p -> Option.iter Sys.remove p.spans) others;
      Option.iter (fun path -> Sys.rename path (trace_file w plan "")) best.spans;
      (match List.assoc_opt "sim.engine.self_s" best.layers with
      | Some r when r < 0. -> problem (Printf.sprintf "engine remainder %.6f s < 0" r)
      | _ -> ());
      best.layers
      @ [ ("op.samples", float_of_int (List.length samples));
          ("trace.overhead_frac", W.ratio best.wall_s best_wall -. 1.)
        ]
  in
  let pick metrics values =
    List.map
      (fun (m : Catalog.metric) ->
        let v = Option.value ~default:0. (List.assoc_opt m.Catalog.name values) in
        (m, if Float.is_finite v then v else (problem (m.Catalog.name ^ " is not finite"); 0.)))
      metrics
  in
  let metrics =
    (if plan.trace <> Some true then pick Catalog.end_to_end e2e else [])
    @ if plan.trace <> Some false then pick Catalog.per_layer layers else []
  in
  let spread name xs =
    let q1, q2, q3 = quartiles xs in
    Printf.sprintf "%s min %.6g median %.6g [q1 %.6g, q3 %.6g]" name (minimum xs) q2 q1 q3
  in
  let notes =
    Printf.sprintf "%d untraced + %d traced passes, %d operations per pass"
      (List.length untraced) (List.length traced) (List.length samples)
    :: spread "wall_s" walls
    :: spread "setup_s" (List.map (fun p -> p.setup_s) untraced)
    :: List.rev !notes
  in
  { correct = !failed = 0 && untraced <> [];
    attempted = max 1 !attempted;
    failed = !failed;
    metrics;
    notes
  }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_of_report r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun ((m : Catalog.metric), v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Catalog.json_string m.Catalog.name)
              (json_number v) (Catalog.json_string m.Catalog.unit))
          r.metrics))

let print_report (w : W.t) plan r =
  Printf.printf "== %s (seed %d) ==\n" w.W.name plan.seed;
  List.iter (fun n -> Printf.printf "  # %s\n" n) r.notes;
  List.iter
    (fun ((m : Catalog.metric), v) -> Printf.printf "  %-40s %16.6g %s\n" m.Catalog.name v m.Catalog.unit)
    r.metrics;
  print_endline (json_of_report r)

(* ------------------------------------------------------------------ *)
(* Smoke check: every workload at 1/50 scale, one untraced and one
   traced pass, against the invariants the full benchmark relies on. *)

let benchmark_json () =
  Catalog.benchmark_json ~workloads:(List.map (fun (w : W.t) -> (w.W.name, w.W.why)) W.all)

let smoke () =
  let errors = ref [] in
  let check cond msg = if not cond then errors := msg :: !errors in
  (match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | text -> check (String.equal text (benchmark_json ())) "BENCHMARK.json is out of date"
  | exception Sys_error e -> check false e);
  let plan = { seed = 0; seconds = None; repeat = 1; trace = None; scale = 1. /. 50. } in
  List.iter
    (fun (w : W.t) ->
      let r = summarize plan w (run_passes plan w) in
      print_report w plan r;
      let value name = List.assoc_opt name (List.map (fun ((m : Catalog.metric), v) -> (m.Catalog.name, v)) r.metrics) in
      check r.correct (w.W.name ^ ": failed operations or fingerprint mismatch");
      check (List.length r.metrics = List.length Catalog.end_to_end + List.length Catalog.per_layer)
        (w.W.name ^ ": missing metrics");
      (* On the simulation workloads (the ones with a traced engine wall
         time) the layers and the engine remainder make up that time. *)
      match (value "sim.wall_s", value "sim.engine.self_s") with
      | Some wall, Some engine when wall > 0. ->
        let layers =
          List.fold_left
            (fun a n -> a +. Option.value ~default:0. (value n))
            engine
            [ "core.select.self_s"; "core.allocate.self_s"; "core.reselect.self_s" ]
        in
        check (engine >= 0. && Float.abs (layers -. wall) <= 1e-9 *. wall)
          (w.W.name ^ ": layer self-times do not sum to the traced wall time")
      | _ -> ())
    W.all;
  match !errors with
  | [] -> print_endline "smoke: ok"
  | es ->
    List.iter (fun e -> prerr_endline ("smoke: " ^ e)) (List.rev es);
    exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload W]... [--seed N] [--seconds S | --repeat R] [--trace 0|1]\n\
    \       main.exe --smoke | --benchmark-json";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let int_arg v = match int_of_string_opt v with Some n when n >= 0 -> n | _ -> usage () in
  let rec parse acc = function
    | [] -> acc
    | "--workload" :: w :: rest ->
      if Option.is_none (W.find w) then begin
        prerr_endline ("unknown workload " ^ w);
        exit 2
      end;
      parse (`Workload w :: acc) rest
    | "--seed" :: n :: rest -> parse (`Seed (int_arg n) :: acc) rest
    | "--seconds" :: n :: rest -> parse (`Seconds (float_of_int (max 1 (int_arg n))) :: acc) rest
    | "--repeat" :: n :: rest -> parse (`Repeat (max 1 (int_arg n)) :: acc) rest
    | "--trace" :: ("0" | "1" as t) :: rest -> parse (`Trace (t = "1") :: acc) rest
    | "--scale" :: f :: rest -> (
      match float_of_string_opt f with
      | Some f when f > 0. -> parse (`Scale f :: acc) rest
      | _ -> usage ())
    | "--spans" :: p :: rest -> parse (`Spans p :: acc) rest
    | "--child" :: w :: rest -> parse (`Child w :: acc) rest
    | "--smoke" :: rest -> parse (`Smoke :: acc) rest
    | "--benchmark-json" :: rest -> parse (`Json :: acc) rest
    | _ -> usage ()
  in
  let opts = List.rev (parse [] args) in
  let last f default = List.fold_left (fun a o -> Option.value ~default:a (f o)) default opts in
  let seed = last (function `Seed n -> Some n | _ -> None) 0 in
  let scale = last (function `Scale f -> Some f | _ -> None) 1. in
  let trace = last (function `Trace t -> Some (Some t) | _ -> None) None in
  match
    ( last (function `Child w -> Some (Some w) | _ -> None) None,
      List.mem `Smoke opts,
      List.mem `Json opts )
  with
  | Some workload, _, _ ->
    let spans = last (function `Spans p -> Some (Some p) | _ -> None) None in
    let p = child ~workload ~seed ~traced:(trace = Some true) ~scale ~spans in
    set_binary_mode_out stdout true;
    output_value stdout p
  | None, true, _ -> smoke ()
  | None, false, true -> print_string (benchmark_json ())
  | None, false, false ->
    let plan =
      { seed;
        seconds = last (function `Seconds s -> Some (Some s) | _ -> None) None;
        repeat = last (function `Repeat r -> Some r | _ -> None) 5;
        trace;
        scale
      }
    in
    let chosen = List.filter_map (function `Workload w -> W.find w | _ -> None) opts in
    List.iter
      (fun w -> print_report w plan (summarize plan w (run_passes plan w)))
      (if chosen = [] then W.all else chosen)
