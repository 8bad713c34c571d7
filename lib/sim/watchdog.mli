(** Deadline-watchdog policy knobs and per-task intervention state —
    the supervision layer {!Engine.run} runs over every event-batch
    recomputation when a [?watchdog] config is supplied.

    The watchdog projects each in-flight subtask's finish time from its
    currently assigned rate ([now + remaining / rate]; [infinity] for a
    stalled flow). A subtask projected to miss its task's deadline by
    more than [slack] seconds is a {e straggler}; the engine responds
    with a hedged source swap — killing the straggling fetch and
    re-running the algorithm's [reselect] hook against the task's
    unused candidate sources — or, when the task is provably infeasible
    on {e every} remaining source set, sheds it early so its bandwidth
    goes to savable tasks instead of burning until the deadline.

    Interventions are throttled by a per-task budget: at most
    [max_swaps] replacement fetches over the task's lifetime, and an
    exponentially growing minimum gap between interventions ([backoff],
    doubling each time), so swap thrash is impossible by construction.
    Everything is a pure function of the run state — watchdog runs
    replay byte-identically. *)

type config = {
  slack : float;  (** seconds a projected miss may exceed the deadline
                      before the watchdog intervenes; >= 0 *)
  max_swaps : int;  (** per-task budget of replacement fetches; >= 0 *)
  backoff : float;  (** initial minimum gap between interventions on
                        one task, in seconds, doubling after each
                        intervention; > 0 *)
}

val default : config
(** [slack = 0.5], [max_swaps = 3] (the n-k spare count of a (9,6)
    code), [backoff = 1.]. *)

(* lint: allow unused-export — README.md's watchdog example calls it *)
val v : ?slack:float -> ?max_swaps:int -> ?backoff:float -> unit -> config
(** Build a config, validating each field (raises [Invalid_argument]
    on a negative slack, negative budget, or non-positive backoff). *)

val of_string : string -> (config, string) result
(** Parse a compact comma-separated spec of [KEY=VALUE] overrides on
    {!default}: [slack=S], [max-swaps=N] (or [max_swaps=N]) and
    [backoff=B], e.g. ["slack=1,max-swaps=3,backoff=2"]. The empty
    string and ["default"] mean {!default}. Returns [Error] with a
    one-line human-readable message on malformed input. *)

val to_string : config -> string
(** Round-trips through {!of_string}. *)

(** {2 Per-task intervention state (used by the engine)} *)

type tstate = {
  mutable swaps : int;  (** replacement fetches installed so far *)
  mutable interventions : int;  (** intervention events, incl. ones that
                                    found no eligible replacement *)
  mutable next_allowed : float;  (** earliest time of the next intervention *)
  mutable abandoned : int list;  (** sources swapped away from — never
                                     candidates for this task again *)
}

val fresh : unit -> tstate
(** No swaps yet, first intervention allowed immediately. *)

val can_intervene : config -> tstate -> now:float -> bool
(** Budget not exhausted and the backoff gap has elapsed. *)

val note_intervention : config -> tstate -> now:float -> replaced:int -> unit
(** Record an intervention at [now] that installed [replaced]
    replacement fetches (0 when no eligible source existed): consumes
    [replaced] budget and pushes [next_allowed] to
    [now + backoff * 2^(interventions - 1)]. *)

val abandon : tstate -> int -> unit
(** Remember a source the watchdog swapped away from. *)
