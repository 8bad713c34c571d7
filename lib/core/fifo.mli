(** First-In-First-Out baselines (§5.2).

    [fifo]: strictly sequential — only the earliest-arrived active task
    transfers, at full (max–min) speed; later tasks wait even when
    their paths are idle, which is the inefficiency the paper's Fig. 1
    discussion calls out.

    [dis_fifo]: the paper's disjoint variant — tasks are admitted in
    arrival order as long as their routes share no capacity entity with
    an already-admitted task, so independent parts of the network run
    in parallel.

    Both pick sources with the given policy (the paper's FIFO family
    chooses randomly). *)

val fifo : ?sources:Algorithm.source_policy -> unit -> Algorithm.t
val dis_fifo : ?sources:Algorithm.source_policy -> unit -> Algorithm.t
