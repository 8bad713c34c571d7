(** Name-indexed construction of every algorithm in the evaluation. *)

val names : string list
(** ["fifo"; "disfifo"; "edf"; "disedf"; "lstf"; "lpall"; "lpst";
    "lpst-p1"; "lpst-p2"; "lpst-p3"; "sp-ff"; "edf-cong"] — the last
    two are the strawman policies of the paper's Fig. 1 discussion
    (shortest-path + first-fit, and EDF with congestion-aware source
    selection). *)

val make : ?seed:int -> string -> Algorithm.t
(** Fresh instance by (case-insensitive) name; [seed] feeds the private
    PRNG of randomized source selection (default 42). Raises
    [Invalid_argument] on unknown names. *)

val competitors : ?seed:int -> unit -> Algorithm.t list
(** The paper's Fig. 2 line-up: FIFO, DisFIFO, EDF, DisEDF, LPAll,
    LPST (in that order). *)

val ablations : ?seed:int -> unit -> Algorithm.t list
(** Fig. 3a line-up: LPST, LPST-P1, LPST-P2, LPST-P3. *)
