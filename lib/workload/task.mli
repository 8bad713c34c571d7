(** Background tasks — the unit the S3 problem schedules.

    A task [A_i] must pull [k] chunks of [volume] megabits each from
    [k] distinct servers chosen among [sources], all into
    [destination], between [arrival] and [deadline] (absolute seconds).
    Repair, rebalance and backup traffic all reduce to this shape
    (rebalance/backup have [k = 1] or [k = k_file] with the appropriate
    candidate sets). *)

type kind =
  | Repair  (** rebuild a lost erasure-coded chunk: read k survivors *)
  | Rebalance  (** move a chunk to a new server: single source *)
  | Backup  (** copy a file to a backup destination: read k chunks *)
  | Generic  (** trace-driven or synthetic transfer *)

type t = {
  id : int;
  kind : kind;
  arrival : float;  (** s_i: task start time, seconds *)
  deadline : float;  (** d_i: absolute deadline, seconds; > arrival *)
  volume : float;  (** v_i: per-chunk volume, megabits *)
  k : int;  (** number of chunks to retrieve *)
  sources : int array;  (** the w_i candidate source servers, all distinct,
                            none equal to [destination]; length >= k *)
  destination : int;  (** p_i *)
}

val pp : Format.formatter -> t -> unit

val v :
  id:int -> ?kind:kind -> arrival:float -> deadline:float -> volume:float ->
  k:int -> sources:int array -> destination:int -> unit -> t
(** Smart constructor; validates every field invariant listed above,
    and that [arrival], [deadline] and [volume] are finite ([kind]
    defaults to [Generic]). Raises [Invalid_argument]. *)

val total_volume : t -> float
(** [k * volume]: megabits entering the destination if completed. *)

val compare_arrival : t -> t -> int
(** Order by arrival time, ties by id — the FIFO order. *)
