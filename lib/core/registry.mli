(** Name-indexed construction of every algorithm in the evaluation. *)

val names : string list
(** ["fifo"; "disfifo"; "edf"; "disedf"; "lstf"; "lpall"; "lpst";
    "lpst-p1"; "lpst-p2"; "lpst-p3"; "sp-ff"; "edf-cong"] — the last
    two are the strawman policies of the paper's Fig. 1 discussion
    (shortest-path + first-fit, and EDF with congestion-aware source
    selection). *)

val make : string -> Algorithm.t
(** Fresh instance by (case-insensitive) name; randomized source
    selection draws from a private PRNG seeded from 42. Raises
    [Invalid_argument] on unknown names. *)
