(** Least-Slack-Time-First (Leung 1989), the classic algorithm that
    inspired RTF (§2). Preemptive and single-task like plain EDF, but
    prioritized by slack — deadline minus remaining transfer time at
    the current bottleneck — rather than by raw deadline. Included as
    an extra baseline to separate "slack-aware" from "jointly
    optimized": LSTF still ignores source selection and per-task
    bandwidth shaping. *)

val lstf : ?sources:Algorithm.source_policy -> unit -> Algorithm.t
