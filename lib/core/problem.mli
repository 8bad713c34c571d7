(** The S3 problem as seen by a scheduling algorithm.

    At every scheduling event (task arrival, flow completion, deadline
    expiry, foreground-traffic change) the execution engine presents
    the algorithm with a {!view}: the active {e flows} — one per
    selected chunk of each running task — and the bandwidth currently
    available to background traffic on each capacity entity. The
    algorithm answers with a rate per flow. Sources are selected once,
    at arrival, and stay fixed while the task runs (paper, eq. (1)). *)

module Task = S3_workload.Task
module Topology = S3_net.Topology

type flow = {
  flow_id : int;  (** unique within a run *)
  task : Task.t;
  source : int;  (** the selected source server of this subtask *)
  remaining : float;  (** megabits still to transfer *)
}

type view = {
  now : float;
  topo : Topology.t;
  flows : flow list Lazy.t;
      (** incomplete flows of all active tasks, tasks in arrival
          order. Whoever builds a view must list each task's flows as
          one run: {!by_task} takes the runs as the groups and does not
          re-join a task whose flows come back after another task's.
          Lazy because the dominant consumer — Phase-I source selection
          with an engine-maintained [load] index — never looks at the
          flow list, and building it is O(all flows) per view:
          allocate-time algorithms force it once, per-spawn congestion
          probes never do. The engine's thunk builds the list from its
          flow table, reusing a flow's record from an earlier view
          while its [remaining] is unchanged. It reads the engine's
          live flow state, so a view is only valid until the engine's
          next mutation — algorithms must force [flows] (or not at all)
          before returning, never stash the view. *)
  available : int -> float;  (** entity id -> megabits/s currently
                                 available to background traffic (raw
                                 capacity minus foreground load) *)
  load : (int -> float) option;
  (** entity id -> sum of the finite least-required bandwidths of the
      view's flows crossing that entity, when the engine maintains a
      per-entity flow index. The engine caches each entity's value
      within an instant: the first probe after the clock moves, or
      after a flow on the entity is removed or re-homed, is a miss and
      costs O(flows on entity); every later probe in the same instant
      is O(1), including after newly arrived tasks' flows join the
      entity. Must equal — bit-for-bit — the sum of the finite LRBs of
      the view's flows crossing the entity, accumulated from 0. in the
      view's flow order; [None] when no index is available. Like
      [flows], it reads live engine state. *)
}

val route_arr : view -> flow -> int array
(** Capacity entities this flow consumes, as the topology's shared
    memoized array — allocation-free; callers must not mutate it. *)

val path_available : view -> src:int -> dst:int -> float
(** Bottleneck available bandwidth between two servers: min of
    [available] along the route; [infinity] for an empty route. This is
    the [C_{o,p}] in the RTF formula. *)

val flow_path_available : view -> flow -> float

val by_task : view -> (Task.t * flow list) list
(** Flows grouped per task, preserving task arrival order and flow
    order within a task. Each group's task is the one its first flow
    carries.

    The groups are the runs of [flows] with one task id, found in one
    pass with no table. This relies on the view listing each task's
    flows as one run, as {!view}[.flows] requires: a task id that
    comes back after another task's run opens a second group. *)
