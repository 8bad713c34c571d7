(** CRC-32 (IEEE 802.3, the zlib/gzip polynomial), table-driven.

    Used by the storage layer to detect shard corruption: a scrubbing
    pass checksums what it reads against what was written. *)

val digest : bytes -> int32
(** Checksum of a whole buffer. *)

val update : int32 -> bytes -> pos:int -> len:int -> int32
(** Incremental interface: feed a slice into a running checksum
    (start from [init]). Raises [Invalid_argument] on bad slices. *)

val init : int32
(** The empty-input state; [digest b = update init b ~pos:0 ~len:(Bytes.length b)]. *)
