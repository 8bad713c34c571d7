(** Earliest-Deadline-First baselines (§5.2).

    [edf]: preemptive single-task EDF — the active task with the
    earliest deadline transfers at full speed; a later arrival with a
    tighter deadline preempts it (the behaviour the paper blames for
    EDF completing fewer tasks than FIFO despite similar remaining
    volume).

    [dis_edf]: disjoint variant — deadline-ordered admission of tasks
    with pairwise entity-disjoint routes. *)

val edf : ?name:string -> ?sources:Algorithm.source_policy -> unit -> Algorithm.t
val dis_edf : ?sources:Algorithm.source_policy -> unit -> Algorithm.t
