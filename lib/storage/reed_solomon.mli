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
    zero-padded to a multiple of [k]. Each shard is processed as
    [len / (8*packet)] fixed-size {e stripes} of 8 packets of [packet]
    bytes plus a byte-wise tail. Within a stripe, parity is the Cauchy
    bitmatrix packet encoding (pure packet XORs, Blömer/jerasure
    style); the tail is the classic byte-wise GF(256) product. The two
    regions use the same generator matrix, so any [k] shards still
    recover the object everywhere.

    {b Kernels.} Every operation runs on one of two kernels computing
    that layout bit-identically: [Table], the retained byte-at-a-time
    reference (checked packet XORs on stripes, per-coefficient
    GF(256) table loops on tails), and [Schedule], the production
    path (compiled word-wide XOR schedules on stripes, a fused
    multiply-accumulate table kernel on tails). The equivalence is
    pinned by the QCheck oracle suite in [test/test_codec.ml]. *)

type code

type kernel =
  | Table  (** byte-wise reference: the oracle the fast path is pinned to *)
  | Schedule  (** compiled word-wide XOR schedules + fused table tails *)

val kernel_name : kernel -> string
val kernel_of_string : string -> (kernel, string) result

val set_default_kernel : kernel -> unit
(** Process-wide default used when an operation's [?kernel] argument
    is omitted (initially [Schedule]); the CLI's [--codec] flag routes
    here. Call from the main domain only. *)

val default_kernel : unit -> kernel

val make : n:int -> k:int -> code
(** [make ~n ~k] builds the code with the default 128-byte packet,
    sized so one stripe (1 KiB per shard) of a (9,6) code sits
    comfortably in L1 while amortizing per-stripe op dispatch. Requires
    [0 < k <= n <= 256]. *)

val make_packet : packet_bytes:int -> n:int -> k:int -> code
(** {!make} with an explicit packet size, which sets the stripe
    granularity — a stripe is [8 * packet_bytes] — and must be a
    positive multiple of 8; tests use small packets to exercise stripe
    logic on small inputs. Codes with different [packet_bytes] produce
    different (equally decodable) parity bytes. *)

val n : code -> int
val k : code -> int

val packet_bytes : code -> int

val stripe_bytes : code -> int
(** [8 * packet_bytes]: the unit of streaming and striping. *)

val stripe_count : code -> shard_length:int -> int
(** Full stripes in a shard of the given length; the remainder is the
    byte-wise tail. *)

val shard_length : code -> data_length:int -> int
(** Length every shard will have for an object of [data_length] bytes. *)

val encode : ?kernel:kernel -> code -> bytes -> bytes array
(** [encode c data] returns the [n] shards; shards [0 .. k-1] are the
    (padded) data split verbatim, the rest are parity in the striped
    layout above. *)

val decode : ?kernel:kernel -> ?length:int -> code -> (int * bytes) list -> bytes
(** [decode c shards] rebuilds the object from any [k] of the [(shard
    index, shard)] pairs; extra pairs are ignored, [length] (default:
    [k * shard length]) trims the padding. The object is assembled
    directly into the result buffer — no per-shard staging copies —
    and when [length] equals [k * shard length] (or is omitted) the
    buffer is returned as-is with no trailing [Bytes.sub]. Raises
    [Invalid_argument] on fewer than [k] shards, duplicate or
    out-of-range indices, or mismatched shard lengths. *)

val reconstruct :
  ?kernel:kernel -> ?share:bool -> code -> index:int -> (int * bytes) list -> bytes
(** [reconstruct c ~index shards] rebuilds the single lost shard
    [index] from any [k] surviving shards — the repair operation whose
    network traffic the S3 scheduler manages (reading [k] chunks to
    rebuild one). When the shard is already present in [shards] it is
    returned defensively copied unless [share] is set (internal
    callers that only read, e.g. the repair pipeline, pass
    [~share:true] to skip the copy). *)

val encode_stripes :
  ?kernel:kernel ->
  ?domains:int ->
  ?on_stripe:(int -> unit) ->
  code ->
  bytes ->
  bytes array
(** Streaming/striped {!encode}: bit-identical output, computed
    stripe by stripe. [on_stripe i] fires once per full stripe index
    in ascending order, as soon as that stripe's bytes are final in
    every parity shard — the hook the repair pipeline uses to overlap
    reconstruction with simulated transfers. [domains > 1] fans
    contiguous stripe ranges out over a {!S3_par.Sweep} pool (each job
    writes freshly allocated buffers, merged in index order), so the
    result and the callback sequence are byte-identical to the
    sequential run; the byte-wise tail is always computed on the
    calling domain. *)

val reconstruct_stripes :
  ?kernel:kernel ->
  ?domains:int ->
  ?on_stripe:(int -> unit) ->
  code ->
  index:int ->
  (int * bytes) list ->
  bytes
(** Streaming/striped {!reconstruct} (never copies a held shard —
    the streaming interface is for rebuilding lost shards, so when
    [index] is present in [shards] that shard is returned directly and
    no callback fires). Same determinism contract as
    {!encode_stripes}. *)

val repair_traffic_factor : code -> float
(** [k]: bytes read over the network per byte repaired, the paper's
    "repairing x bytes generates kx bytes of traffic". *)

val storage_overhead : code -> float
(** [n/k], e.g. 1.5 for (9,6). *)
