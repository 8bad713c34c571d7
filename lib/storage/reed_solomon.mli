(** Systematic maximum-distance-separable Reed–Solomon erasure codes
    with a production-rate data path.

    An [(n, k)] code splits an object into [k] data shards and derives
    [n - k] parity shards; any [k] of the [n] shards reconstruct the
    object (the MDS property the paper assumes throughout). The
    generator matrix is [I; C] with [C] Cauchy — every k-row submatrix
    is invertible by construction — and each parity row is scaled by
    the nonzero constant minimizing the popcount of its
    {!Bitmatrix} lift (scaling preserves the MDS property and shrinks
    every XOR schedule compiled from the matrix).

    {b Data layout.} Shards are byte strings; the object is
    zero-padded to a multiple of [k]. Each shard is processed as full
    1 KiB {e stripes} of 8 packets of 128 bytes plus a byte-wise
    tail. Within a stripe, parity is the Cauchy bitmatrix packet
    encoding (pure packet XORs, Blömer/jerasure style), run as a
    compiled word-wide XOR {!Schedule}; the tail is the classic
    byte-wise GF(256) product, a fused multiply-accumulate over
    per-coefficient tables. The two regions use the same generator
    matrix, so any [k] shards still recover the object everywhere.
    [test/codec_ref.ml] derives the generator on its own and applies
    this layout byte by byte; the codec tests compare every operation
    with it bit for bit. *)

type code

val make : n:int -> k:int -> code
(** [make ~n ~k] builds the code. Requires [0 < k <= n <= 256]. *)

val n : code -> int
val k : code -> int

val encode : code -> bytes -> bytes array
(** [encode c data] returns the [n] shards, each
    [max 1 (ceil (length data / k))] bytes long; shards [0 .. k-1] are
    the (padded) data split verbatim, the rest are parity in the
    striped layout above. *)

val decode : code -> (int * bytes) list -> bytes
(** [decode c shards] rebuilds the padded object, [k * shard length]
    bytes, from any [k] of the [(shard index, shard)] pairs; extra
    pairs are ignored. The object is assembled directly into the
    result buffer, with no per-shard staging copies, and a caller that
    knows the original length cuts the padding off itself. Raises
    [Invalid_argument] on fewer than [k] shards, duplicate or
    out-of-range indices, or mismatched shard lengths. *)

val reconstruct : code -> index:int -> (int * bytes) list -> bytes
(** [reconstruct c ~index shards] rebuilds the single lost shard
    [index] from any [k] surviving shards — the repair operation whose
    network traffic the S3 scheduler manages (reading [k] chunks to
    rebuild one). When the shard is already present in [shards] it is
    returned defensively copied. *)

val encode_stripes : ?domains:int -> code -> bytes -> bytes array
(** {!encode} with its full stripes fanned out over [domains]
    (default 1) as contiguous stripe ranges through
    {!S3_par.Sweep.map_ranges}. Each job writes freshly allocated
    buffers, merged in index order, so the result is byte-identical to
    {!encode}; the byte-wise tail is always computed on the calling
    domain. *)
