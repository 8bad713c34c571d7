(** Multi-run reporting: CSV export for external plotting and the
    runs' fingerprints — the glue between {!Metrics} and the benchmark
    harness / downstream notebooks. *)

val csv_of_runs : Metrics.run list -> string
(** One row per run:
    [algorithm,completed,total,remaining_gb,utilization,horizon_s,
    plan_ms,events,flows_killed,tasks_rehomed,tasks_lost,
    swaps_attempted,swaps_successful,tasks_rescued,tasks_shed_early,
    shed_gb,suspicions,false_suspicions,detections,retries_attempted,
    retries_exhausted,resumed_gb]. Header included; floats in fixed
    notation. *)

val fingerprint : Metrics.run -> string
(** Hex digest of a canonical, timing-free serialization of the run:
    algorithm, horizon, transferred and wasted volume, utilization,
    plan calls, event / clamp / fault counters and every per-task
    outcome (floats rendered round-trip exact), but {e not}
    [plan_time], which is CPU time and varies run to run. Two runs of the same scenario fingerprint
    identically no matter how many domains executed the sweep around
    them — the determinism check for {!S3_par.Sweep}. Watchdog counters
    (swaps, rescues, sheds and the shed volume) are serialized only
    when at least one is nonzero, so runs where the watchdog is off or
    never intervenes keep their pre-watchdog digests byte-for-byte; the
    failure-detector counters (suspicions, false suspicions,
    detections) and the retry/resume counters (retries, exhaustions,
    bytes resumed) follow the same rule, preserving every
    pre-detection digest. *)
