(** Small statistics toolkit used by the metrics collector and the
    benchmark harness: summary statistics, percentiles and empirical
    CDFs over float samples. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on fewer than two samples. *)

val minimum : float list -> float
(** Smallest sample. Raises [Invalid_argument] on the empty list. *)

val maximum : float list -> float
(** Largest sample. Raises [Invalid_argument] on the empty list. *)

val total : float list -> float
(** Sum of samples. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the [p]-th percentile (0 <= p <= 100) with
    linear interpolation between order statistics. Raises
    [Invalid_argument] on the empty list or out-of-range [p]. *)

type cdf
(** An empirical cumulative distribution function. *)

val cdf_of_samples : float list -> cdf
(** Build an empirical CDF. Raises [Invalid_argument] on no samples. *)

val cdf_eval : cdf -> float -> float
(** [cdf_eval c x] is the fraction of samples [<= x]. *)

val cdf_points : cdf -> steps:int -> (float * float) list
(** [cdf_points c ~steps] samples the CDF at [steps+1] evenly spaced
    abscissae spanning the sample range, suitable for plotting. *)

val histogram : bins:int -> lo:float -> hi:float -> float list -> int array
(** [histogram ~bins ~lo ~hi xs] counts samples per bin over [lo,hi);
    out-of-range samples are clamped into the end bins. *)
