(** Deterministic fault injection: seed-driven plans of mid-run
    failures, played into the execution engine as first-class events.

    A {e plan} is an immutable, time-sorted script of faults — server
    crashes, whole-rack outages, transient link degradations and server
    recoveries. The engine walks a {e state} cursor over the plan: at
    each change it kills the flows whose endpoints died and hands
    surviving tasks back to the algorithm for source re-selection.
    Everything is derived from explicit seeds and plain data, so equal
    seeds and equal plans replay byte-identically — the property the
    chaos test suite pins with {!S3_sim.Report.fingerprint} (once the
    engine consumes the plan; this module itself never draws randomness
    outside {!random}).

    Semantics the cursor enforces:
    - A crashed server's NIC contributes zero capacity while it is down
      (its entity {!multiplier} is 0), and the server is remembered as
      {!ever_crashed} forever: the chunks it held are gone, so it never
      re-enters any task's candidate set even after {!kind.Server_recover}
      brings it back (empty) as a valid destination for new traffic.
    - A rack outage is the simultaneous crash of every server still
      alive in the rack.
    - A link degradation multiplies one entity's capacity by a factor in
      [0, 1] for a bounded interval; overlapping degradations on the
      same entity compound (their factors multiply). Expiry is itself a
      change point ({!change.Restored}), so schedulers recompute when
      capacity returns. *)

type kind =
  | Server_crash of int  (** the server dies; its chunks are lost *)
  | Server_recover of int
      (** the server returns, {e empty}: full NIC capacity, eligible as
          a destination again, but permanently out of the candidate set
          of any stripe it used to hold *)
  | Rack_outage of int  (** crash every live server of one failure domain *)
  | Link_degrade of { entity : int; factor : float; duration : float }
      (** entity capacity is multiplied by [factor] (in [0, 1]) for
          [duration] seconds from the event time *)

type event = { time : float; kind : kind }

type t
(** A validated plan: events in nondecreasing time order (stable for
    equal times). *)

val empty : t
(** The no-fault plan; the engine with [empty] behaves exactly as one
    run without faults. *)

val plan : event list -> t
(** Validate and time-sort a script. Raises [Invalid_argument] on a
    negative or non-finite time, a degradation factor outside [0, 1],
    or a non-positive or non-finite duration. Server / rack / entity
    indices are checked later, by {!start}, against a topology. *)

val events : t -> event list
(** The script, in the order the cursor will fire it. *)

val is_empty : t -> bool

(* lint: allow unused-export — README.md's fault-injection example calls it *)
val random :
  S3_util.Prng.t -> S3_net.Topology.t -> horizon:float ->
  ?crashes:int -> ?rack_outages:int -> ?degradations:int ->
  ?recoveries:bool -> unit -> t
(** A seeded random plan for chaos campaigns: [crashes] distinct-server
    crash events (capped so at least two servers stay un-crashed),
    [rack_outages] whole-rack outages, [degradations] transient
    degradations (factor in [0.1, 0.9], duration up to [horizon / 2]),
    all at uniform times in [0, horizon); with [recoveries] (default
    true) each crashed server gets a recovery at a later time with
    probability 1/2. Defaults: 1 crash, 0 rack outages, 1 degradation.
    Equal generator states yield equal plans. *)

val of_string : string -> (t, string) result
(** Parse a compact comma-separated spec, one event per item:
    - [crash@T:SRV] — server [SRV] crashes at time [T]
    - [recover@T:SRV]
    - [rack@T:RACK] — rack outage
    - [degrade@T:ENT:FACTOR:DUR] — entity [ENT] at [FACTOR] of its
      capacity for [DUR] seconds

    e.g. ["crash@30:5,degrade@10:36:0.5:20,recover@60:5"]. Returns
    [Error] with a human-readable message on malformed input. *)

val to_string : t -> string
(** Round-trips through {!of_string} {e exactly}: floats are printed
    with the shortest decimal form that parses back to the same value,
    so [of_string (to_string p)] reproduces [p]'s events bit-for-bit. *)

(** {2 The engine-facing cursor} *)

type change =
  | Crashed of int  (** a server just died (rack outages are expanded) *)
  | Recovered of int  (** a previously dead server just returned *)
  | Degraded of int  (** a degradation just started on this entity *)
  | Restored of int  (** a degradation on this entity just expired *)

type state

val start : S3_net.Topology.t -> t -> state
(** Bind a plan to a topology and validate every index against it
    (raises [Invalid_argument] on a server / rack / entity out of
    range). All servers start alive and all multipliers at 1. *)

val next_change : state -> float
(** Absolute time of the next change — the earliest un-fired event or
    active-degradation expiry; [infinity] when nothing remains. *)

val advance : state -> float -> change list
(** Fire everything due at or before the given time (with the engine's
    usual 1e-9 tolerance), in plan order, and return the normalized
    changes: crashing a dead server or recovering a live one is a
    no-op and reports nothing; a rack outage reports one [Crashed] per
    server it actually killed. Time never goes backwards.

    Simultaneous events on the same server are resolved by {e plan
    order} — the script order the events were handed to {!plan} in
    (the sort is stable, so equal times never reorder). In particular,
    for a same-instant crash / recover pair at time [T] on server [s]:
    - [crash@T:s, recover@T:s] fires both: the changes are
      [[Crashed s; Recovered s]], and afterwards [s] is alive but
      {!ever_crashed} (it bounced, losing its chunks).
    - [recover@T:s, crash@T:s] on a live server fires only the crash
      (the recover is a no-op on a live server): the changes are
      [[Crashed s]] and [s] is dead.

    The two spellings are {e not} equivalent — plan order is the tie
    break, and the determinism suite pins it. *)

val dead : state -> int -> bool
(** Is this server currently down? *)

val ever_crashed : state -> int -> bool
(** Has this server crashed at any point so far? Once true, stays true
    (recovered servers return empty — their old chunks are lost). *)

val multiplier : state -> int -> float
(** Current capacity multiplier of an entity: 0 for the NIC of a dead
    server, the product of active degradation factors otherwise (1 when
    unaffected), multiplied newest first. The entity's degradations are
    found by one array read, so the cost is O(1) plus one
    multiplication per degradation active on that entity. *)

val degraded : state -> int -> bool
(** Is at least one degradation currently active on this entity? O(1):
    one array read. The watchdog uses this to triage stragglers: a
    straggler whose route crosses a degraded entity is swapped before
    one that is merely slow from contention, and the retry policy to
    tell a stalled flow from one starved by contention. *)

val deliverable : state -> int -> from:float -> until:float -> float
(** Integral of {!multiplier} for one entity over [\[from, until)],
    assuming no further script events fire: active degradations expire
    on their schedule and a currently dead NIC stays dead (0). This is
    the seconds-of-full-capacity the entity can still deliver before
    [until] — multiplied by the entity's available bandwidth it bounds
    the volume any flow can move through it, which is what the
    watchdog's shed criterion needs (an instantaneous multiplier would
    mis-shed tasks whose degradations expire before the deadline).
    Returns 0 when [until <= max from clock]; [from] is clamped to the
    cursor's clock. O(1) for an entity with no active degradation:
    then it is [until -. from] after the clamp, or 0 for a dead NIC. *)
