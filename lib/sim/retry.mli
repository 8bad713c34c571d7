(** Transfer retry policy knobs and per-flow stall state — how
    {!Engine.run} reacts to transient zero-rate transfers when a
    [?retry] config is supplied.

    A flow is {e stalled} when it still has bytes remaining, its
    allocated rate is zero, and its route crosses a degraded entity
    (a {!Fault.Link_degrade} window — crashes are the detector's and
    re-home logic's business, not the retry policy's). The engine arms
    a timer when a flow first stalls: after [timeout] seconds it
    re-issues the fetch against the {e same} source (a retry — in the
    fluid model this changes nothing physically, but it is counted and
    it restarts the timer with the gap multiplied by [backoff]); after
    [retries] fruitless retries the next expiry {e exhausts} the flow
    and the engine re-homes it to a different eligible source through
    the algorithm's [reselect] hook.

    [resume] controls what a replacement fetch starts from — here and
    for every other replacement the engine installs (crash re-homes,
    watchdog swaps): [true] resumes from the bytes already fetched
    (counted in the [bytes_resumed] metric), [false] restarts the chunk
    from zero (the pre-detection behaviour, progress counted as
    [wasted]).

    Interventions are bounded by construction: at most [retries + 1]
    timer events per flow, and a timer only re-arms with a strictly
    larger gap. Everything is a pure function of the run state —
    retry-enabled runs replay byte-identically. *)

type config = {
  retries : int;
      (** same-source retries before a stalled flow is re-homed; >= 0
          ([0] means the first expiry re-homes immediately) *)
  timeout : float;
      (** seconds of stall before the first retry; finite, > 0 *)
  backoff : float;
      (** multiplier on the timeout after each retry; finite, >= 1 *)
  resume : bool;
      (** replacement fetches resume from partial progress instead of
          restarting the chunk from zero *)
}

val default : config
(** [retries = 2], [timeout = 1.], [backoff = 2.], [resume = true]. *)

(* lint: allow unused-export — README.md's failure-detection example calls it *)
val v :
  ?retries:int ->
  ?timeout:float ->
  ?backoff:float ->
  ?resume:bool ->
  unit ->
  config
(** Build a config, validating each field (raises [Invalid_argument]
    on a negative retry count, non-positive timeout, or backoff
    below 1). *)

val of_string : string -> (config, string) result
(** Parse a compact comma-separated spec of [KEY=VALUE] overrides on
    {!default}: [retries=N], [timeout=T], [backoff=B] and
    [resume=true|false], e.g. ["retries=3,timeout=0.5,resume=false"].
    The empty string and ["default"] mean {!default}. Returns [Error]
    with a one-line human-readable message on malformed input. *)

val to_string : config -> string
(** Round-trips through {!of_string}. *)

(** {2 Per-flow stall state (used by the engine)} *)

type fstate = {
  mutable attempts : int;  (** same-source retries fired so far *)
  mutable since : float;
      (** when the current wait began (stall onset or last retry);
          [neg_infinity] when not stalled *)
  mutable given_up : bool;
      (** exhausted with no eligible replacement — stop timing *)
}

val fresh : unit -> fstate
(** Not stalled, full retry budget. *)

val mark_stalled : fstate -> now:float -> unit
(** Start the timer if it is not already running (idempotent while the
    stall persists, so the deadline doesn't slide). *)

val clear : fstate -> unit
(** The flow is moving again: stop the timer and refund the full retry
    budget (a later stall is a new episode). *)

val next_deadline : config -> fstate -> float
(** Absolute time of the next retry (or exhaustion) event:
    [since + timeout * backoff^attempts]; [infinity] when not stalled
    or given up. *)

val note_retry : fstate -> now:float -> unit
(** Record a same-source retry at [now]: consumes one attempt and
    restarts the wait from [now]. *)

val exhausted : config -> fstate -> bool
(** The retry budget is spent — the next expiry re-homes instead. *)

val give_up : fstate -> unit
(** Exhausted with no eligible replacement: silence the timer. *)
