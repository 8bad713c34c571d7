(** Task generators — the paper's "task generator" component, feeding
    both the simulator and the cloud emulator (§5.1, Table 3).

    Two families: the synthetic generator reproduces the evaluation's
    parameter grid (Poisson arrivals, erasure-code mixes, chunk-size and
    deadline-factor sweeps); the cluster-driven builders derive repair,
    and rebalance tasks from actual {!S3_storage.Cluster} state,
    which the example programs use. *)

type config = {
  num_tasks : int;
  arrival_rate : float;  (** Poisson arrivals, tasks per second *)
  chunk_size_mb : float;  (** chunk size in megabytes (paper default 64) *)
  code_mix : ((int * int) * float) list;
      (** weighted (n, k) choices, e.g. [[(9, 6), 0.5; (14, 10), 0.5]];
          weights need not be normalized *)
  deadline_factor : float;  (** deadline = arrival + factor * LRT *)
  deadline_jitter : float;
      (** relative spread of the deadline factor: each task draws its
          factor uniformly from [factor*(1-j), factor*(1+j)]. 0 gives
          the homogeneous deadlines of Table 3; the paper's experiment
          note about "wide spanning task deadline settings" motivates
          nonzero values, and heterogeneous deadlines are what separate
          EDF from FIFO. Must lie in [0, 1). *)
  placement : S3_storage.Placement.policy;
}

val baseline : config
(** Table 3 "baseline" row: 1000 tasks, (9,6), Poisson 0.1/s, 64 MB
    chunks, deadline factor 10, rack-aware placement. *)

val mb_to_megabits : float -> float
(** Chunk sizes are quoted in MB, capacities in Mb/s; volumes are kept
    in megabits. *)

val deadline : arrival:float -> factor:float -> lrt:float -> float
(** [arrival + factor * lrt], the deadline of a task whose least
    required time is [lrt]. Raises [Invalid_argument], naming the chunk
    size, the deadline factor and the link capacity, when the sum
    rounds back onto [arrival]. *)

val generate :
  S3_util.Prng.t -> S3_net.Topology.t -> config -> Task.t list
(** Synthesize repair tasks in arrival order. Each task corresponds to
    one file placed under [config.placement] that lost one chunk: the
    destination is a server holding no chunk of the file, the
    candidates are the [n - 1] survivors, and [k] of them must be read.
    LRT uses the server-link capacity of the topology's first server
    NIC (the paper's FullLinkCapacity = CST). Raises [Invalid_argument]
    unless the arrival rate, chunk size and deadline factor are finite
    and positive, the jitter lies in [\[0, 1)] and the code-mix weights
    are finite and non-negative (NaN fails every check). *)

type kind_profile = {
  kind : Task.kind;
  weight : float;  (** relative share of tasks with this profile *)
  profile_code : (int * int) option;
      (** [(n, k)] erasure code for repair/backup-shaped tasks; [None]
          gives a single-source transfer (rebalance-shaped) *)
  profile_deadline_factor : float;  (** deadline = this x LRT *)
}

val generate_mixed :
  S3_util.Prng.t -> S3_net.Topology.t ->
  num_tasks:int -> arrival_rate:float -> chunk_size_mb:float ->
  ?deadline_jitter:float -> ?profiles:kind_profile list -> unit -> Task.t list
(** Heterogeneous background traffic: each task draws a profile by
    weight. This is the workload where deadline order and arrival order
    genuinely differ, separating EDF-style from FIFO-style scheduling
    (see the bench's `heterogeneous` experiment). [deadline_jitter]
    (default 0, must lie in [0, 1)) spreads each task's deadline factor
    uniformly over [factor*(1-j), factor*(1+j)] as in {!generate}; 0
    draws nothing from the PRNG, so jitter-free streams are unchanged.
    [profiles] defaults to a production-flavoured blend: urgent (9,6)
    repairs (50%, factor 6), single-source rebalance moves (30%, factor
    12), and lax (9,6) backups (20%, factor 25). The named {!Profile}s
    feed this entry point. *)

val repair_tasks_on_failure :
  S3_util.Prng.t -> S3_storage.Cluster.t -> server:int -> now:float ->
  deadline_factor:float -> first_id:int -> Task.t list
(** Fail [server] in the cluster and emit one repair task per chunk it
    held (skipping files left with fewer than [k] survivors, which are
    unrecoverable, and files with no eligible destination). *)

val rebalance_tasks :
  S3_util.Prng.t -> S3_storage.Cluster.t -> moves:(S3_storage.Cluster.file_id * int * int) list ->
  now:float -> deadline_factor:float -> first_id:int -> Task.t list
(** One single-source task per [(file, chunk, new server)] move. *)
