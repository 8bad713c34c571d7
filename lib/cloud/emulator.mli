(** Cloud-testbed emulation — the stand-in for the paper's 30-VM
    OpenStack cluster with an rsync data plane (§5.1; DESIGN.md,
    substitutions).

    The paper validated its simulator against a real deployment whose
    prototype (a) pauses ongoing rsync transfers on every scheduling
    event, recomputes, and re-issues ssh commands with new [--bwlimit]
    values; (b) enforces rates through rsync's whole-KB/s bandwidth
    limiter; and (c) suffers ordinary TCP throughput noise. They found
    simulation and testbed agree within 2.2%. This module replays the
    same algorithms through {!S3_sim.Engine} with exactly those three
    mechanisms layered on, so the sim-vs-experiment comparison of
    Fig. 2 exercises a faithful code path. All noise is drawn from a
    seeded PRNG: runs are reproducible. *)

type config = {
  control_latency_min : float;  (** seconds, lower bound per event (default 0.05) *)
  control_latency_max : float;  (** upper bound (default 0.2) *)
  bwlimit_quantum : float;  (** rate granularity in megabits/s; rsync's
                                --bwlimit works in whole KB/s, i.e.
                                0.008 Mb/s (the default) *)
  jitter_stddev : float;  (** relative throughput noise (default 0.02) *)
  seed : int;
}

val default_config : config

val data_plane : config -> S3_sim.Engine.data_plane
(** The distortion layer alone, for composing with a custom engine
    configuration. *)

val run :
  ?sim_config:S3_sim.Engine.config ->
  ?faults:S3_fault.Fault.t ->
  ?detector:S3_fault.Detector.config ->
  ?retry:S3_sim.Retry.config ->
  ?watchdog:S3_sim.Watchdog.config ->
  S3_net.Topology.t ->
  S3_core.Algorithm.t ->
  S3_sim.Metrics.Task.t list ->
  S3_sim.Metrics.run
(** Execute the workload on the emulated testbed, with the data plane
    of {!default_config}. The result is directly comparable with
    {!S3_sim.Engine.run} on the same inputs — that comparison is the
    validation experiment. [faults], [detector], [retry] and
    [watchdog] pass straight through to the engine, so chaos and
    graceful-degradation scenarios run under the noisy data plane
    too. *)
