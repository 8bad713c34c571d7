(** Time-varying foreground traffic (§5.4, Fig. 3b).

    Background scheduling only gets the bandwidth foreground traffic
    leaves over. Following the paper, every capacity entity's
    foreground occupancy is redrawn uniformly from [0, max_frac] at
    fixed intervals; the engine re-runs the scheduling computation at
    each change, as the paper does on "large foreground traffic
    change". *)

type config = {
  max_frac : float;  (** occupancy is uniform on [0, max_frac]; mean max_frac/2 *)
  change_interval : float;  (** seconds between redraws *)
}

val none : config
(** No foreground traffic (the baseline setting). *)

val uniform : max_frac:float -> config
(** Redraw every 5 s, the interval used by all experiments. *)

type t

val create : S3_util.Prng.t -> S3_net.Topology.t -> config -> t
(** Occupancies start at an initial draw for time 0. *)

val available : t -> int -> float
(** Raw capacity times (1 - occupancy) — what background traffic may
    use on this entity right now. *)

val next_change : t -> float
(** Absolute time of the next redraw; [infinity] when static. *)

val generation : t -> int
(** Monotone counter bumped on every redraw (including the initial
    draw). Lets the engine detect "foreground changed since I last
    looked" in O(1) — a redraw moves every entity, so observers should
    treat a generation change as an everything-is-dirty signal. *)

val advance : t -> float -> unit
(** Move the process forward to an absolute time, performing every
    redraw on the way. Time never goes backwards. *)
