(** Datacenter network topologies.

    A topology is a set of servers plus the {e capacity entities} their
    traffic consumes. An entity is anything with a bandwidth budget the
    scheduler must respect: a server NIC (the paper's per-server [CST]
    constraint), a TOR uplink (the per-switch [CTA] constraint), or a
    fat-tree / BCube switch. A flow from server [src] to server [dst]
    consumes capacity on every entity of [route src dst]; the S3
    constraint sets RC_g and SC_h of the paper are exactly "flows whose
    route contains entity g/h".

    The paper formulates S3 on the two-tier TOR + aggregator topology
    and names fat-tree and BCube as future work; all three are provided
    here and the scheduler is topology-agnostic. *)

type entity_kind =
  | Server_nic  (** endpoint NIC, budget [cst] *)
  | Tor_uplink  (** rack-to-aggregator uplink, budget [cta] *)
  | Edge_switch  (** fat-tree edge layer *)
  | Agg_switch  (** fat-tree aggregation layer *)
  | Core_switch  (** fat-tree core layer *)
  | Bcube_switch  (** BCube level switch *)
  | Leaf_switch  (** leaf-spine leaf *)
  | Spine_switch  (** leaf-spine spine *)

(** An entity is known by its id and kind; a route never lists one
    entity twice. *)
type entity = {
  id : int;  (** dense index into [entities t] *)
  kind : entity_kind;
  capacity : float;  (** raw bandwidth budget available to background
                         traffic, in the same unit as task volumes per
                         second (we use megabits/s throughout) *)
}

type t

(** Every constructor raises [Invalid_argument] on sizes out of range
    or on a capacity [cst] or [cta] that is not finite and positive
    (NaN included). *)

val two_tier : racks:int -> servers_per_rack:int -> cst:float -> cta:float -> t
(** The paper's topology: one aggregator, [racks] TOR switches,
    [servers_per_rack] servers under each. Intra-rack flows consume
    only the two endpoint NICs; cross-rack flows additionally consume
    both TOR uplinks. The aggregator backplane is non-blocking (the
    paper's Fig. 1 accounting charges congestion to TOR uplinks). *)

val fat_tree : k:int -> cst:float -> cta:float -> t
(** A k-ary fat-tree ([k] even): [k] pods of [k/2] edge and [k/2]
    aggregation switches, [k²/4] core switches, [k³/4] servers. Paths
    above the edge layer are picked by a deterministic hash of the
    server pair, emulating ECMP. Switch entities carry budget [cta]. *)

val leaf_spine :
  leaves:int -> spines:int -> servers_per_leaf:int -> cst:float -> cta:float -> t
(** The modern 2-layer Clos fabric: every leaf connects to every spine.
    Intra-leaf flows consume the two NICs and the leaf switch;
    cross-leaf flows additionally consume one hash-selected spine and
    the destination leaf. Leaves and spines carry budget [cta]. *)

val bcube : ports:int -> levels:int -> cst:float -> cta:float -> t
(** BCube(n,k) with [n = ports] and [k = levels - 1]: [n^levels]
    servers, [levels] layers of n-port switches. Routes follow
    single-path BCubeRouting, correcting one address digit per hop;
    intermediate servers' NICs are consumed like endpoints (BCube is
    server-centric forwarding). *)

val name : t -> string
(** Short identifier, e.g. ["two_tier(3x10)"]. *)

val servers : t -> int
(** Number of servers; servers are indexed [0 .. servers t - 1]. *)

val racks : t -> int
(** Number of failure domains (racks / pods / level-0 groups). *)

val rack_of : t -> int -> int
(** Failure domain of a server. *)

val servers_in_rack : t -> int -> int list
(** All servers of one failure domain. *)

val entities : t -> entity array
(** All capacity entities, indexed by [entity.id]. *)

val entity : t -> int -> entity
(** Entity by id. Raises [Invalid_argument] on bad ids. *)

val server_entity : t -> int -> int
(** Entity id of a server's NIC. *)

val route : t -> src:int -> dst:int -> int list
(** Capacity entities consumed by one [src -> dst] flow, endpoints
    included. [route ~src ~dst:src] is the empty list (a local copy
    touches no shared budget). Raises [Invalid_argument] on bad server
    indices. Always computed directly from the topology's routing
    function (the uncached oracle for {!route_array}). *)

val route_array : t -> src:int -> dst:int -> int array
(** Same entities as {!route}, as an immutable int array memoized in a
    flat [src * servers + dst] table — the planning hot path. The table
    takes [servers²] words, allocated at the first call and kept for
    the topology's lifetime. The returned array is shared by all
    callers and must not be mutated. Raises [Invalid_argument] on bad
    server indices. *)

