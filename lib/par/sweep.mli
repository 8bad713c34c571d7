(** Deterministic parallel sweeps over independent scenarios.

    [map] fans indexed jobs out over freshly spawned domains and
    returns results in index order, so a sweep produces byte-identical
    output whether it runs on one domain or many — provided jobs are
    self-contained: derive all randomness from the job index
    (per-scenario seeds), build topology/task objects inside the job
    (shared structures with internal lazy caches are not domain-safe),
    and treat the result slot as the only output channel. *)

val domain_count : unit -> int
(** The default parallelism: the [S3_DOMAINS] environment variable
    when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()], clamped to [1 .. 64]. The
    first call caches the answer. *)

val map : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [map n f] computes [|f 0; ...; f (n-1)|] with jobs distributed
    over [min domains n] domains (default {!domain_count}): the caller
    and [min domains n - 1] spawned domains claim ascending indices
    from one shared counter, and the spawned domains are joined before
    [map] returns. A single-domain run executes inline without
    spawning anything. The first job exception stops further claims
    and is re-raised after the join. *)

val map_ranges : ?domains:int -> int -> (lo:int -> hi:int -> 'a) -> 'a array
(** [map_ranges n f] splits [0, n) into one balanced contiguous range
    per worker (at most [min domains n] ranges; the first [n mod jobs]
    ranges get one extra index) and computes [f ~lo ~hi] for each,
    returning results in range order. The partition depends only on
    [n] and the worker count, so a caller that pins [domains] gets a
    deterministic decomposition — the shape the striped codec uses for
    index-ordered merges. The jobs contract of {!map} applies. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map} at the default domain count, preserving
    input order. *)
