(** Straight-line XOR programs compiled from a {!Bitmatrix} — the
    jerasure "smart schedule" idea.

    A schedule turns one stripe application of a lifted matrix (8
    packets per shard; output packet [r] is the XOR of the input
    packets whose bit is set in row [r]) into a flat op list: copy a
    packet, XOR a packet in, or zero a packet. Ops may read packets of
    previously computed *output* rows, which is how the smart compiler
    dedupes common subexpressions: an output bit-row whose matrix row
    is close (in Hamming distance) to an earlier one is derived from
    it with one copy plus the difference, instead of from scratch.

    {!apply} executes the program with 64-bit word XORs
    ([Bytes.blit] for copies), which is what makes the packet data
    path run at memory bandwidth instead of byte-lookup speed. The
    compiled program is immutable and safe to share across domains. *)

type t

val compile : Bitmatrix.t -> t
(** [compile bm] compiles the lifted matrix into an XOR program whose
    {!apply} is bit-identical to applying [bm] packet by packet (the
    byte-wise reference in [test/codec_ref.ml]). Each
    output row is derived from the cheapest previously computed output
    row when that beats building it from the input columns. Requires
    bit dimensions that are multiples of 8. *)

val apply :
  t ->
  srcs:Bytes.t array ->
  soffs:int array ->
  dsts:Bytes.t array ->
  doffs:int array ->
  packet:int ->
  unit
(** Run the program on one stripe: shard [j]'s packet [c] is the
    [packet] bytes at [soffs.(j) + c*packet] ([doffs.(i)] likewise for
    outputs). Every output packet is written before it is read, so
    destination buffers need not be zeroed. [packet] must be a
    positive multiple of 8; all regions are bounds-checked once here,
    and the hot loop then runs on unchecked 64-bit accessors. Raises
    [Invalid_argument] on shape, alignment or bounds violations. *)
