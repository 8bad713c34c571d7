(** Named fio-style workload profiles — the scenario-diversity axis of
    the matrix runner.

    Storage benchmarking suites describe load as a small vocabulary of
    named profiles (sequential-rw, random-rw, db-oltp, ...) rather than
    raw parameter grids; conclusions about scheduling policies flip
    across these mixes, so the repo sweeps them as a first-class
    dimension. Each profile fixes the background-traffic shape — arrival
    rate, chunk size, task-kind mix with per-kind deadline factors,
    deadline jitter and foreground occupancy — and compiles into the
    existing {!Generator} parameters. A compact spec grammar
    ([profile=db-oltp,scale=1.5]) selects and scales a profile from the
    CLI; parsing and printing round-trip exactly. *)

type t = private {
  name : string;  (** the spec-grammar key, e.g. ["db-oltp"] *)
  summary : string;  (** one line for reports and [--help] *)
  arrival_rate : float;  (** Poisson arrivals per second at scale 1 *)
  chunk_size_mb : float;  (** per-chunk payload, megabytes *)
  mix : Generator.kind_profile list;
      (** task-kind blend; [Some (n, k)] entries are re-coded when the
          matrix sweeps an erasure-code dimension *)
  deadline_jitter : float;  (** relative deadline-factor spread, [0, 1) *)
  fg_frac : float;
      (** foreground occupancy this profile implies: max fraction of
          each link the foreground process may take (0 = idle cluster) *)
}

val names : string list
(** The six named profiles, in canonical report order:
    [sequential-rw], [random-rw], [mixed-70-30], [db-oltp],
    [app-server], [data-pipeline]. {!of_string} looks a name up,
    case-insensitively. *)

(** {1 Specs — a profile plus run-shaping overrides} *)

type spec = {
  profile : t;
  scale : float;
      (** load multiplier: arrival rate is [profile.arrival_rate *
          scale]; chunk volume is untouched, so offered load scales
          linearly. Finite, > 0. *)
  tasks : int option;  (** per-run task count; [None] defers to the
                           caller's default *)
}

val task_count : default:int -> spec -> int
(** The spec's task count, or [default] when the spec left it open. *)

val of_string : string -> (spec, string) result
(** Parse [NAME] or [profile=NAME] followed by optional
    [,scale=F][,tasks=N] items in any order. Errors are one-line and
    human-readable (unknown profile, bad number, out-of-range value,
    unknown key, duplicate profile). *)

val to_string : spec -> string
(** Canonical form: [profile=NAME,scale=F[,tasks=N]] with the scale in
    shortest round-trip decimal; [of_string (to_string s)] returns a
    spec equal to [s]. *)

val generate :
  ?code:int * int -> ?tasks:int ->
  S3_util.Prng.t -> S3_net.Topology.t -> spec -> Task.t list
(** Compile the spec and synthesize its task stream via
    {!Generator.generate_mixed}, at the profile's arrival rate times
    the spec's scale. [code] re-codes every [Some (n, k)] entry of the
    mix — the hook the matrix runner's erasure-code dimension plugs
    into; single-source ([None]) entries are untouched, and a code
    without [0 < k <= n] raises [Invalid_argument]. [tasks] is the
    fallback count for specs that left [tasks] unset (default 200 —
    small enough for a multi-cell matrix, large enough to separate the
    algorithms). Same PRNG seed, spec and topology give an identical
    list. *)
