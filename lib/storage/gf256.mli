(** Arithmetic in GF(2⁸), the field underlying the Reed–Solomon codec.

    Elements are ints in [0, 255]. Addition is XOR; multiplication uses
    exp/log tables over the AES-friendly primitive polynomial
    x⁸+x⁴+x³+x²+1 (0x11D), the standard choice in storage systems
    (ISA-L, Jerasure). All operations are total on valid elements;
    [inv] raises [Division_by_zero] on zero. Addition is also
    subtraction (characteristic 2), and [mul a (inv b)] divides. *)

val add : int -> int -> int
val mul : int -> int -> int
val inv : int -> int
val pow : int -> int -> int
(** [pow a e] with [e >= 0]; [pow 0 0 = 1]. *)

val check : int -> unit
(** Raises [Invalid_argument] unless the value is in [0, 255]. *)

val mul_table : int -> int array
(** [mul_table a] is the 256-entry table mapping [x] to [mul a x],
    memoized per coefficient and shared by all callers — callers must
    not mutate it. One table read replaces the log/exp lookup pair in
    byte-wise inner loops. *)
