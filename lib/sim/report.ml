module Task = S3_workload.Task

let csv_of_runs runs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "algorithm,completed,total,remaining_gb,utilization,horizon_s,plan_ms,events,flows_killed,tasks_rehomed,tasks_lost,swaps_attempted,swaps_successful,tasks_rescued,tasks_shed_early,shed_gb,suspicions,false_suspicions,detections,retries_attempted,retries_exhausted,resumed_gb\n";
  List.iter
    (fun (r : Metrics.run) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s,%d,%d,%.4f,%.6f,%.3f,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%.4f\n"
           r.Metrics.algorithm
           (Metrics.completed r)
           (List.length r.Metrics.outcomes)
           (Metrics.remaining_volume_gb r) r.Metrics.utilization r.Metrics.horizon
           (1000. *. Metrics.mean_plan_time r)
           r.Metrics.events r.Metrics.flows_killed r.Metrics.tasks_rehomed r.Metrics.tasks_lost
           r.Metrics.swaps_attempted r.Metrics.swaps_successful r.Metrics.tasks_rescued
           r.Metrics.tasks_shed_early
           (r.Metrics.shed_volume /. 8000.)
           r.Metrics.suspicions r.Metrics.false_suspicions r.Metrics.detections
           r.Metrics.retries_attempted r.Metrics.retries_exhausted
           (r.Metrics.bytes_resumed /. 8000.)))
    runs;
  Buffer.contents buf

(* Canonical, timing-free serialization of a run. plan_time is CPU
   time measured inside the engine ([Sys.time]) and varies with load,
   domain count and machine, so it is the one run field excluded; all
   floats print as %.17g (round-trip exact), making the digest a
   byte-level identity on everything the simulation computed. *)
let fingerprint (r : Metrics.run) =
  let buf = Buffer.create 1024 in
  let fl v = Buffer.add_string buf (Printf.sprintf "%.17g;" v) in
  let it i = Buffer.add_string buf (string_of_int i); Buffer.add_char buf ';' in
  Buffer.add_string buf r.Metrics.algorithm;
  Buffer.add_char buf ';';
  fl r.Metrics.horizon;
  fl r.Metrics.transferred;
  fl r.Metrics.utilization;
  it r.Metrics.plan_calls;
  it r.Metrics.events;
  it r.Metrics.clamp_events;
  it r.Metrics.flows_killed;
  it r.Metrics.tasks_rehomed;
  it r.Metrics.tasks_lost;
  fl r.Metrics.wasted;
  (* Watchdog fields join the digest only when the watchdog acted, so
     every pre-watchdog fingerprint — and every watchdog-off run — keeps
     its historical value (the byte-identity the tests pin). A nonzero
     shed_volume implies a nonzero tasks_shed_early, so the integer gate
     is complete. *)
  if
    r.Metrics.swaps_attempted + r.Metrics.swaps_successful + r.Metrics.tasks_rescued
    + r.Metrics.tasks_shed_early
    > 0
  then begin
    Buffer.add_string buf "wd;";
    it r.Metrics.swaps_attempted;
    it r.Metrics.swaps_successful;
    it r.Metrics.tasks_rescued;
    it r.Metrics.tasks_shed_early;
    fl r.Metrics.shed_volume
  end;
  (* Same gating discipline for the failure-detector and retry/resume
     fields (this PR): they join the digest only when the subsystem
     acted, so every detection-off / retry-off run keeps its historical
     digest. detections > 0 implies suspicions > 0, and bytes_resumed
     > 0 only ever happens alongside a counted retry/re-home, but the
     float joins the gate anyway for belt-and-braces completeness. *)
  if r.Metrics.suspicions + r.Metrics.false_suspicions + r.Metrics.detections > 0
  then begin
    Buffer.add_string buf "det;";
    it r.Metrics.suspicions;
    it r.Metrics.false_suspicions;
    it r.Metrics.detections
  end;
  if
    r.Metrics.retries_attempted + r.Metrics.retries_exhausted > 0
    || r.Metrics.bytes_resumed > 0.
  then begin
    Buffer.add_string buf "rt;";
    it r.Metrics.retries_attempted;
    it r.Metrics.retries_exhausted;
    fl r.Metrics.bytes_resumed
  end;
  List.iter
    (fun (o : Metrics.outcome) ->
      it o.Metrics.task.Task.id;
      Array.iter it o.Metrics.sources;
      Buffer.add_string buf (if o.Metrics.completed then "T" else "F");
      fl o.Metrics.finish_time;
      fl o.Metrics.remaining)
    r.Metrics.outcomes;
  Digest.to_hex (Digest.string (Buffer.contents buf))
