(** Small statistics toolkit used by the metrics collector and the
    benchmark harness: summary statistics and percentiles over float
    samples. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on fewer than two samples. *)

val minimum : float list -> float
(** Smallest sample. Raises [Invalid_argument] on the empty list. *)

val maximum : float list -> float
(** Largest sample. Raises [Invalid_argument] on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the [p]-th percentile (0 <= p <= 100) with
    linear interpolation between order statistics. Raises
    [Invalid_argument] on the empty list or out-of-range [p]. *)
