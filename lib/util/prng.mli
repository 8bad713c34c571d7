(** Deterministic pseudo-random number generation.

    Every stochastic component of the library (workload generation,
    placement, foreground traffic, the cloud emulator) draws from an
    explicit generator of this type, so that experiments are exactly
    reproducible from a seed, and components that must not share a
    stream are given generators of their own. The core generator is
    SplitMix64, which has a 64-bit state and passes BigCrush. *)

type t
(** A mutable pseudo-random generator. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal
    seeds yield identical streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] draws uniformly from [0, n-1]. Requires [n > 0]. *)

val float : t -> float -> float
(** [float g x] draws uniformly from [0, x). Requires [x > 0]. *)

val uniform : t -> float -> float -> float
(** [uniform g lo hi] draws uniformly from [lo, hi). *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> rate:float -> float
(** [exponential g ~rate] draws from Exp(rate); mean [1/rate].
    Requires [rate > 0]. *)

val pareto : t -> shape:float -> scale:float -> float
(** [pareto g ~shape ~scale] draws from a Pareto distribution with the
    given tail index and minimum value [scale]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate via Box–Muller. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample g k xs] draws [k] distinct elements of [xs] uniformly
    without replacement, in random order. Requires
    [k <= List.length xs]. *)
