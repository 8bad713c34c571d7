(** End-to-end storage pipeline: metadata + codec + data plane.

    Ties together {!Cluster} (who holds which chunk), {!Reed_solomon}
    (how bytes are encoded) and {!Store} (the bytes themselves). This
    is the layer a repair task's {e completion} acts on: once the
    scheduler has moved k chunks to the destination, [repair] performs
    the actual reconstruction and updates the metadata, closing the
    loop the paper's prototype closes with rsync.

    All sizes here are bytes; the workload generator's task volumes are
    megabits, and [write_file] records each chunk's volume in megabits
    (at least 0.001, so tasks always have positive volume). *)

type t

type file_info = {
  id : Cluster.file_id;
  code : Reed_solomon.code;
  length : int;  (** original object length, bytes *)
}

val create : Cluster.t -> t
(** Wrap a cluster; the store starts empty and files must be written
    through [write_file]. *)

val cluster : t -> Cluster.t
val store : t -> Store.t

val write_file : t -> S3_util.Prng.t -> n:int -> k:int -> bytes -> file_info
(** Encode, place (rack-aware) and persist a new object. *)

val read_file : t -> Cluster.file_id -> bytes
(** Decode the object from any k live shards. Raises [Failure] when
    fewer than k shards survive (data loss). *)

val repair :
  t -> file:Cluster.file_id -> chunk:int -> sources:int list -> destination:int -> unit
(** Rebuild one lost chunk at [destination] by reading the shards the
    [sources] servers hold (they must hold >= k live shards of the
    file between them; extra sources are ignored). Verifies nothing is
    overwritten: raises [Invalid_argument] if the chunk is not
    currently lost, a source holds no shard of the file, or the
    destination already holds one. *)

val scrub : t -> (Cluster.file_id * int) list
(** Integrity pass over every placed shard: any whose bytes fail their
    write-time CRC-32 is quarantined — evicted from the metadata and
    deleted from the store — and returned as (file, chunk) needing
    repair. A clean cluster returns []. *)

val verify_file : t -> Cluster.file_id -> bool
(** Deep check: every placed shard's bytes equal a fresh re-encode of
    the (decoded) object — the scrub a real system runs. *)
