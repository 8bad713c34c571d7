(** Scenario-matrix runner: a deterministic sweep over workload profile
    x erasure code x topology x scheduling algorithm, aggregated into a
    markdown summary and a CSV artifact.

    Real storage benchmarking suites evaluate a full matrix of named
    workload profiles against EC schemes and emit a ranked summary
    report; hand-picked scenarios hide how conclusions about
    scheduling policies flip across workload mixes. This module is the
    scenario-diversity engine later dimensions (LRC schemes,
    multi-tenant QoS classes) plug into.

    Determinism contract: cells are enumerated in axis order
    (algorithm fastest-varying), each cell's workload seed is a pure
    function of the base seed and the cell's profile/code/topology
    coordinates — {e not} of its algorithm, so algorithms compete on
    identical task streams — and every job builds its own topology and
    task list ({!S3_par.Sweep.map}'s self-containment contract). Both
    artifacts therefore come out byte-identical across reruns and
    across any [S3_DOMAINS] setting; the cram golden pins them. *)

module Profile = S3_workload.Profile

type axes = {
  profiles : Profile.spec list;
  codes : (int * int) list;  (** (n, k) erasure schemes, e.g. (6,4), (9,6), (12,8) *)
  topologies : (string * (unit -> S3_net.Topology.t)) list;
      (** label plus a builder; built fresh inside each sweep job
          (topology route caches are not domain-safe to share) *)
  algorithms : string list;  (** {!S3_core.Registry} names *)
  detectors : (string * S3_fault.Detector.config option) list;
      (** failure-detection axis: label plus an optional
          {!S3_fault.Detector.config} ([None] = omniscient settle).
          The default axis is [[("off", None)]], which is {e byte-
          invisible}: neither artifact mentions detectors and both come
          out identical to the pre-detector renderings. Cell workload
          seeds exclude this axis, so every detection latency schedules
          the identical task stream. Only meaningful with [faults]. *)
  faults : S3_fault.Fault.t;
      (** one fault plan applied to every cell ({!S3_fault.Fault.empty}
          for none — also byte-invisible) *)
  tasks : int;  (** per-cell task count for specs without their own *)
  seed : int;  (** base seed the per-cell seeds derive from *)
}

type cell = {
  spec : Profile.spec;
  code : int * int;
  topology : string;
  algorithm : string;
  detector : string * S3_fault.Detector.config option;
  cell_seed : int;  (** the derived workload seed, recorded for replay *)
  run : Metrics.run;
}

val run : ?domains:int -> axes -> cell list
(** Execute every cell over {!S3_par.Sweep.map} and return them in
    enumeration order. Raises [Invalid_argument] on an empty axis, a
    bad code, or a negative task count; the message is one line and
    CLI-ready. *)

val csv : cell list -> string
(** One row per cell:
    [profile,scale,n,k,topology,algorithm,seed,tasks,completed,
    hit_rate,remaining_gb,throughput_mbps,wasted_gb,utilization,
    horizon_s,fingerprint]. Header included; fixed-notation floats;
    timing fields (plan time) deliberately excluded so the artifact is
    reproducible byte-for-byte. When any cell carries a real detector
    config, a [detector] column appears after [algorithm] (commas in
    the label mapped to spaces); with the default axis the bytes are
    unchanged. *)

val markdown : axes -> cell list -> string
(** The summary report: dimension inventory, algorithms ranked by
    pooled deadline-hit rate (ties broken by wasted volume, then
    name), per-profile cell tables, a per-run fingerprint appendix,
    and a final [Report fingerprint:] line — the MD5 of {!csv}, which
    CI compares against the cram golden to detect drift. *)

val report_fingerprint : cell list -> string
(** MD5 hex digest of {!csv} — the single value that pins the whole
    artifact pair. *)
