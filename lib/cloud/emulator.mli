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
    Fig. 2 exercises a faithful code path. *)

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
(** Execute the workload on the emulated testbed. Each scheduling
    event pauses the transfers for a control latency drawn uniformly
    from [0.05, 0.2] s; each assigned rate is truncated to a multiple
    of 0.008 Mb/s (rsync's whole KB/s) and scaled by a throughput
    factor drawn from a normal distribution with mean 1 and standard
    deviation 0.02, capped at 1. The draws come from one PRNG seeded
    with 1234, so runs are reproducible. The result is directly
    comparable with {!S3_sim.Engine.run} on the same inputs — that
    comparison is the validation experiment. [faults], [detector],
    [retry] and [watchdog] pass straight through to the engine, so
    chaos and graceful-degradation scenarios run under the noisy data
    plane too. *)
