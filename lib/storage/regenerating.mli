(** Regenerating-code repair parameters (Dimakis et al., 2010).

    The paper's §3.2 observes that its formulation covers regenerating
    codes unchanged: repairing with degree [d] instead of [k] is "an
    erasure code with parameters (n, d)" — the scheduler just sees [d]
    sources, each shipping the per-helper repair bandwidth beta instead
    of a full chunk. This module computes the two extreme points of the
    storage/repair-bandwidth tradeoff:

    - {e MSR} (minimum storage): each node stores [M/k], a repair pulls
      [beta = M / (k (d - k + 1))] from each of [d] helpers;
    - {e MBR} (minimum bandwidth): each node stores
      [2 M d / (2 k d - k² + k)], and repair bandwidth equals storage —
      [beta = 2 M d / (d (2 k d - k² + k)) ... ] per helper.

    Classic MDS repair is the [d = k] MSR point with [beta = M/k]: read
    k whole chunks. Raising [d] trades more helper connections (and
    more source-selection constraints) for strictly less total repair
    traffic — the effect the bench's `regenerating` experiment
    measures under the LPST scheduler. *)

type point =
  | Msr  (** minimum-storage regenerating point *)
  | Mbr  (** minimum-bandwidth regenerating point *)

type params = {
  n : int;  (** total nodes per stripe *)
  k : int;  (** nodes sufficient to reconstruct the object *)
  d : int;  (** helpers contacted during repair; [k <= d <= n - 1] *)
  point : point;
}

val make : n:int -> k:int -> d:int -> point -> params
(** Validates [0 < k <= d <= n - 1] (a repair must be able to avoid
    the failed node). Raises [Invalid_argument]. *)

val helper_traffic : params -> object_size:float -> float
(** Bytes/bits each helper ships during one repair (beta). *)

val repair_traffic : params -> object_size:float -> float
(** Total network volume of one repair: [d * beta] (gamma). For MSR
    with [d = k] this is the paper's "repairing x bytes moves kx". *)

val repair_savings : params -> float
(** [1 - gamma / (k * chunk)]: fraction of repair traffic saved
    relative to classic MDS repair of the same object. 0 when
    [d = k] at the MSR point. *)
