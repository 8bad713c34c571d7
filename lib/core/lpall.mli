(** LPAll — bandwidth reservation by linear programming over {e all}
    active tasks (§5.2).

    On every event LPAll maximizes total allocated bandwidth subject to
    capacity constraints, with every task demanding its least required
    bandwidth. Under overload the demands are infeasible; LPAll being
    deadline-blind, it degrades every demand by the same factor theta
    (the largest feasible scale) instead of prioritizing urgent tasks —
    which is exactly why it transmits plenty of bytes yet misses
    deadlines (paper, Figs. 2–3 discussion). *)

val lpall : unit -> Algorithm.t
(** Sources are picked least-congested first. The LP is solved as in
    {!Lpst.lpst}: through one {!S3_lp.Lp.state} per instance,
    block-decomposed and warm-started. *)
