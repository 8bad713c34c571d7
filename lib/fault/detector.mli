(** Failure detection with suspicion latency — the control-plane view
    of a {!Fault} plan.

    The fault plan says when servers {e physically} die; this module
    says when the scheduler {e learns} about it. A deterministic
    heartbeat/probe model is compiled, once per run, into a flat
    detection schedule: a crash at [T] stops the server's heartbeats,
    the detector raises a suspicion at [T + suspect] and confirms the
    death at [T + suspect + confirm] unless positive evidence (a
    recovery heartbeat) arrives first. Consequences:

    - a crash–recover blip shorter than [suspect] is never noticed at
      all (the transfer session survives — no flows are killed, no
      bytes are wasted);
    - a recovery inside the confirmation window retracts the suspicion
      without the engine ever settling the crash;
    - only a {e confirmed} death triggers flow kills and re-homing, so
      with [suspect + confirm > 0] the engine keeps pushing bytes into
      the dead NIC (clamped to zero rate by the fault multiplier) until
      the detector fires.

    Optional seeded false positives model probe loss: suspicions never
    backed by a crash that always clear before they could confirm.

    Everything is precomputed by replaying a private {!Fault} cursor
    (rack outages expanded, dead re-crashes deduplicated), so equal
    configs and plans replay byte-identically, and a zero-latency
    detector ([suspect = 0, confirm = 0, fp = 0]) confirms each crash
    batch at its injection instant in the physical fire order — i.e. it
    is observationally identical to running without a detector, with
    one exception: a server that crashes and recovers at the same
    instant recovers at exactly [crash + suspect], which the detector
    treats as a blip and never suspects, while the omniscient engine
    kills and re-homes its flows. *)

type config = {
  suspect : float;
      (** seconds of heartbeat silence before a server is suspected;
          finite, >= 0 *)
  confirm : float;
      (** seconds a suspicion must survive unrefuted before the death
          is confirmed; finite, >= 0 *)
  fp : int;  (** number of seeded false-positive suspicion draws; >= 0 *)
  fp_seed : int;  (** PRNG seed for the false-positive draws *)
  fp_horizon : float;
      (** false-positive start times are drawn uniformly from
          [\[0, fp_horizon)]; finite, > 0 when [fp > 0] *)
}

val v :
  ?suspect:float ->
  ?confirm:float ->
  ?fp:int ->
  ?fp_seed:int ->
  ?fp_horizon:float ->
  unit ->
  config
(** Build a config; the defaults are [suspect = 1.], [confirm = 1.]
    and no false positives ([fp = 0], [fp_seed = 211],
    [fp_horizon = 0.]). Validates each field (raises [Invalid_argument]
    on negative or non-finite windows, negative [fp], or [fp > 0]
    without a positive [confirm] and a finite positive [fp_horizon] —
    false positives need a confirmation window to clear inside). *)

val of_string : string -> (config, string) result
(** Parse a compact comma-separated spec of [KEY=VALUE] overrides on
    the defaults of {!v}: [suspect=S], [confirm=C], [fp=N], [fp-seed=K]
    and [fp-horizon=H] (underscored spellings accepted), plus the shorthand
    [latency=L] meaning [suspect=L,confirm=0] — detection fires [L]
    seconds after the crash with no retraction window. The empty string
    and ["default"] mean [v ()]. Returns [Error] with a one-line
    human-readable message on malformed input. *)

val to_string : config -> string
(** Round-trips through {!of_string}. *)

(** {2 Detection schedule} *)

type event =
  | Suspected of int  (** heartbeats went silent — server suspected *)
  | Cleared of int
      (** positive evidence arrived before confirmation — suspicion
          retracted (also ends a false positive) *)
  | Confirmed of int  (** death confirmed — the engine settles now *)
  | Seen_alive of int
      (** a confirmed-dead server recovered — it may be selected again *)

(** {2 Engine-facing cursor} *)

type state
(** Mutable replay cursor over the plan's detection schedule, which is
    precomputed and sorted by time (equal-time events in deterministic
    generation order: real detections in physical crash order before
    false positives). It mirrors the {!Fault} cursor discipline
    ([start] / [next_change] / [advance]). *)

val start : S3_net.Topology.t -> config -> Fault.t -> state
(** Cursor at time 0: nothing suspected, nothing believed dead. *)

val next_change : state -> float
(** Absolute time of the next detection event, [infinity] when the
    schedule is exhausted. *)

val advance : state -> float -> event list
(** Advance the cursor to an absolute time, firing (and returning, in
    schedule order) every event up to and including that instant.
    Time never goes backwards; re-advancing to the same time is a
    no-op returning []. *)

val suspected : state -> int -> bool
(** The server is currently suspected {e or} believed dead — fresh
    spawns and reselects should avoid it. *)

val believed_dead : state -> int -> bool
(** The server's death has been confirmed and it has not been seen
    alive since — its flows are killed and its tasks re-homed. *)

val known_crashed : state -> int -> bool
(** The server's death was confirmed at some point (never cleared by a
    later recovery) — the detection-side analogue of
    {!Fault.ever_crashed}. *)
