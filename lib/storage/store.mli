(** In-memory shard store: the data plane under the cluster metadata.

    Each server owns a keyed blob store; shards are addressed by
    (file, chunk index). The scheduler decides {e when} and {e from
    where} bytes move; this module is the {e what} — it holds the
    bytes, so the repair pipeline can demonstrate end-to-end that a
    scheduled repair really reconstructs the lost shard. Servers are
    modelled independently, so failing one only loses its own blobs. *)

type t

val create : servers:int -> t
(** An empty store for [servers] servers. *)

val put : t -> server:int -> file:int -> chunk:int -> bytes -> unit
(** Store (a copy of) a shard. Overwrites silently. Raises
    [Invalid_argument] on a bad server index. *)

val borrow : t -> server:int -> file:int -> chunk:int -> bytes option
(** Read the stored shard {e without} copying: the returned buffer is
    the store's own, so the caller must treat it as read-only (mutating
    it would silently corrupt the stored shard past its checksum). For
    read-only paths — codec sources, verification — where a defensive
    copy would be pure memory traffic. *)

val delete : t -> server:int -> file:int -> chunk:int -> unit
(** Remove a shard if present. *)

val wipe_server : t -> int -> int
(** Drop every shard a server holds (its disk died); returns how many
    were lost. *)

val checksum_ok : t -> server:int -> file:int -> chunk:int -> bool option
(** Compare the shard's bytes against the CRC-32 recorded at [put]
    time; [None] when the shard is absent. Detects bit rot injected by
    [corrupt] (or by a buggy data path). *)

val scrub : t -> (int * int * int) list
(** Every (server, file, chunk) whose current bytes no longer match
    their write-time checksum — the background integrity pass real
    systems run continuously. *)

val corrupt : t -> server:int -> file:int -> chunk:int -> unit
(** Fault injection for tests: flip one byte of a stored shard without
    updating its checksum. No-op on absent/empty shards. *)
