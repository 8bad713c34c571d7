(** CRC-32 (IEEE 802.3, the zlib/gzip polynomial), table-driven.

    Used by the storage layer to detect shard corruption: a scrubbing
    pass checksums what it reads against what was written. *)

val digest : bytes -> int32
(** Checksum of a whole buffer. *)
