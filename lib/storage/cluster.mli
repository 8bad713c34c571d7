(** Cluster metadata: which chunk of which file lives on which server.

    This is the bookkeeping layer a real deployment keeps in its
    metadata service. It tracks per-file erasure-code parameters and
    chunk locations, marks servers failed, and answers the questions
    the background-task generators need: which chunks a failure lost,
    who still holds survivors, and which server may receive a rebuilt
    chunk. *)

type file_id = int

type file = {
  id : file_id;
  n : int;  (** total chunks *)
  k : int;  (** chunks needed to reconstruct *)
  chunk_volume : float;  (** per-chunk size, megabits *)
  locations : int array;  (** chunk index -> server, length [n];
                              [-1] marks a lost, not-yet-repaired chunk *)
}

type t

val create : S3_net.Topology.t -> t

val topology : t -> S3_net.Topology.t

val add_file :
  t -> S3_util.Prng.t -> n:int -> k:int -> chunk_volume:float -> unit -> file_id
(** Place a new [(n, k)]-coded file with the [Rack_aware] policy.
    Raises [Invalid_argument] on bad code parameters or when fewer than
    [n] servers are alive. *)

val file : t -> file_id -> file
(** Raises [Not_found] on unknown ids. *)

val survivors : t -> file_id -> (int * int) list
(** [(chunk index, server)] pairs of the file's live chunks — the
    candidate sources o_{i,1..w} of a repair task. *)

val fail_server : t -> int -> (file_id * int) list
(** Mark a server failed; its chunks become lost and are returned.
    Failing a dead server returns []. *)

val revive_server : t -> int -> unit
(** Bring a server back empty (its old chunks stay lost until
    repaired). *)

val repair_destination : t -> S3_util.Prng.t -> file_id -> int option
(** A uniformly random alive server that holds no chunk of the file —
    where the repaired chunk will be written. [None] if no such server
    exists. *)

val total_stored_volume : t -> float
(** Sum of all placed chunk volumes, megabits. *)
