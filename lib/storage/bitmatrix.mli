(** Binary (GF(2)) matrices lifted from GF(2⁸) matrices — the Cauchy
    bitmatrix construction of Blömer et al. used by jerasure-style
    codecs.

    A GF(256) matrix element [e] becomes an 8×8 bit block whose column
    [c] holds the bits of [e·2ᶜ]; multiplying the lifted matrix by the
    bit-decomposition of a data word over GF(2) equals the GF(256)
    matrix–vector product. Because lifting is a ring homomorphism
    (products and inverses lift to products and inverses), the codec
    can invert in GF(256) with {!Matrix.invert} and lift the result.

    The payoff is the packet data path: a shard region of
    [8 × packet] bytes is treated as 8 packets, and every lifted-row
    application is a pure XOR of whole packets — no field
    multiplications — which {!Schedule} compiles into straight-line
    word-wide XOR programs. The byte-wise application, packet by
    packet, is the reference in [test/codec_ref.ml] that the compiled
    programs are checked against. *)

type t

val of_matrix : Matrix.t -> t
(** [of_matrix m] lifts an r×c GF(256) matrix to its 8r×8c binary
    form: bit (8i+r, 8j+c) is bit [r] of [m(i,j)·2ᶜ]. *)

val rows : t -> int
(** Bit rows (8× the GF(256) row count). *)

val cols : t -> int
(** Bit columns (8× the GF(256) column count). *)

val get : t -> int -> int -> bool
(** [get bm r c] reads one bit. Raises [Invalid_argument] out of
    range. *)

val element_ones : int -> int
(** [element_ones e] is the popcount of the 8×8 lift of the field
    element [e] — the row-scaling heuristic minimizes the sum of this
    over a generator row before any schedule is compiled. *)
