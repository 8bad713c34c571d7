(** Chunk-placement policies.

    Distributed stores spread erasure-coded chunks uniformly over
    servers (Ceph via CRUSH, Swift, HDFS, Ambry — §4 of the paper); the
    S3 evaluation assumes uniform placement. Three policies are
    provided; all guarantee the [n] chunks land on [n] distinct
    servers. *)

type policy =
  | Flat_uniform
      (** [n] distinct servers uniformly at random, ignoring racks. *)
  | Rack_aware
      (** racks round-robin from a random starting order, random server
          inside each rack — chunks spread as evenly as possible over
          failure domains, the common production default. *)
  | Crush_weighted of float array
      (** CRUSH-style straw2 selection: each server draws a hash-seeded
          score scaled by its weight; the top [n] scores win. Placement
          is a pure function of (object id, weights), so any client can
          recompute it without a directory — the property CRUSH is
          built around. The array gives one non-negative weight per
          server; zero-weight servers never receive chunks. *)

val place :
  S3_util.Prng.t -> S3_net.Topology.t -> policy -> object_id:int -> n:int -> int array
(** [place g topo policy ~object_id ~n] returns [n] distinct servers.
    [Flat_uniform] and [Rack_aware] draw from [g]; [Crush_weighted] is
    deterministic in [object_id] and ignores [g]. Raises
    [Invalid_argument] when [n] exceeds the number of (eligible)
    servers. *)
