(** A persistent pool of worker domains for coarse-grained batches.

    Built on the stdlib [Domain]/[Mutex]/[Condition] primitives — jobs
    are whole scenario replications (milliseconds to seconds each), so
    mutex-guarded work claiming costs nothing measurable and keeps
    every batch transition plainly race-free. Jobs of one batch are
    claimed in ascending index order; where results land is entirely
    the caller's business (write into a pre-sized slot per index to
    keep result order independent of execution order). *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains (the caller
    participates in every batch, so [domains = 1] degrades to plain
    sequential execution with no domain ever spawned). Raises
    [Invalid_argument] when [domains < 1]. *)

val run : t -> jobs:int -> (int -> unit) -> unit
(** [run t ~jobs body] executes [body i] for every [i] in
    [0 .. jobs - 1] across the pool's domains and returns when all of
    them finished. The caller's domain works through the same queue.
    If a job raises, the batch's unclaimed jobs are cancelled, the
    in-flight ones drain, and the first exception is re-raised here.
    Do not call concurrently from several domains; one batch runs at a
    time. *)

val shutdown : t -> unit
(** Terminate and join the worker domains. Idempotent. Subsequent
    {!run} calls raise [Invalid_argument]. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] over a fresh pool and shuts it
    down on the way out, exception or not. *)
