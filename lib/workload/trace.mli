(** Google-cluster-trace arrivals (§5.5).

    The paper drives one experiment from the public Google cluster
    trace, using only each task's {e start time} and {e source machine}
    (the trace carries no sizes, topology or destinations — the authors
    synthesize those exactly as we do). This module provides (a) a
    parser for that two-column format so a real trace extract can be
    dropped in, and (b) a statistically matched synthetic generator —
    a bursty, heavy-tailed arrival process over a machine population —
    used when the real trace is unavailable (see DESIGN.md,
    substitutions). *)

type record = {
  time : float;  (** task submission time, seconds from trace start *)
  machine : int;  (** source machine identifier *)
}

val parse : string -> record list
(** Parse a whole trace body of [time,machine] CSV lines, preserving
    order; blank lines and [#] comments are skipped. Raises
    [Invalid_argument] on a malformed line, including a time that is
    negative, NaN or infinite. *)

val to_csv : record list -> string
(** Inverse of [parse]; ends with a newline when non-empty. *)

val synthetic :
  S3_util.Prng.t -> machines:int -> tasks:int -> record list
(** Generate [tasks] records over [machines] machines with the
    burstiness the Google trace exhibits: a Poisson background overlaid
    with Pareto-sized machine-local bursts (job arrays landing on one
    machine back-to-back). Sorted by time. *)

val to_tasks :
  S3_util.Prng.t -> S3_net.Topology.t -> record list ->
  chunk_size_mb:float -> deadline_factor:float -> Task.t list
(** The paper's mapping for this experiment: each record becomes a
    single-source, single-destination transfer ([k = 1]) of one chunk
    from [machine mod servers] to a uniformly random other server, with
    deadline [factor * LRT]. Records are taken in time order and times
    are shifted so the first arrival is 0. *)
