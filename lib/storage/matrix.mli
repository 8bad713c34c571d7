(** Small dense matrices over GF(2⁸) for the Reed–Solomon codec. *)

type t
(** Row-major matrix of field elements. *)

val init : rows:int -> cols:int -> (int -> int -> int) -> t
(** [init ~rows ~cols f] fills entry (i,j) with [f i j]; entries are
    validated as field elements. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> int
val set : t -> int -> int -> int -> unit

val mul : t -> t -> t
(** Matrix product. Raises [Invalid_argument] on shape mismatch. *)

val select_rows : t -> int list -> t
(** New matrix from the given rows, in order. *)

val invert : t -> t option
(** Gauss–Jordan inverse; [None] when singular. Requires square. *)
