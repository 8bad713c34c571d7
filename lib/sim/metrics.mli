(** Per-run measurements — the paper's three evaluation metrics
    (§5.1): tasks completed by deadline, remaining volume of failed
    tasks, and average link utilization — plus scheduling-plan
    computation cost for the Fig. 5 overhead study. *)

module Task = S3_workload.Task

type outcome = {
  task : Task.t;
  sources : int array;  (** the k sources the algorithm selected *)
  completed : bool;
  finish_time : float;  (** completion time, or the deadline for failures *)
  remaining : float;  (** megabits untransferred at the deadline; 0 if completed *)
}

type run = {
  algorithm : string;
  outcomes : outcome list;  (** one per task, in task order *)
  horizon : float;  (** time the last task resolved *)
  transferred : float;  (** total megabits moved (all flows) *)
  wasted : float;
      (** megabits moved that ended up useless: partial fetches of
          fault-killed flows, chunks delivered to tasks later lost to a
          failure, and everything transferred into a task its algorithm
          abandoned (or, for deadline-blind heuristics, finished) after
          the deadline. For admission-control algorithms every
          transferred megabit is either part of a task completed on
          time or wasted, so [transferred] equals the summed total
          volume of completed tasks plus [wasted] — the conservation
          law the chaos tests pin. *)
  utilization : float;  (** mean over entities of bits moved / (raw capacity x horizon) *)
  plan_time : float;  (** CPU seconds spent inside the algorithm's allocate *)
  plan_calls : int;
  events : int;  (** scheduling events processed *)
  clamp_events : int;  (** allocations the engine had to scale down to
                           fit capacity — 0 for well-behaved algorithms *)
  flows_killed : int;
      (** flows stopped because a fault removed their source or
          destination (replacement fetches spawn fresh flows) *)
  tasks_rehomed : int;
      (** fault-surviving tasks whose dead (or retry-exhausted, see
          {!Retry}) sources were replaced via the algorithm's
          [reselect] hook (counted once per re-homing event, so a
          twice-struck task counts twice) *)
  tasks_lost : int;
      (** tasks made unrecoverable by faults: destination died, fewer
          surviving candidate sources than [k], or the algorithm has no
          [reselect] hook *)
  swaps_attempted : int;
      (** straggling subtask fetches the deadline watchdog tried to
          replace (counted even when no eligible spare source existed);
          0 without [?watchdog] *)
  swaps_successful : int;
      (** replacement fetches the watchdog actually installed via the
          algorithm's [reselect] hook *)
  tasks_rescued : int;
      (** watchdog-swapped tasks that went on to complete by their
          deadline *)
  tasks_shed_early : int;
      (** tasks the watchdog cancelled before their deadline because no
          remaining source set could finish in time *)
  shed_volume : float;
      (** megabits already delivered to early-shed tasks when they were
          cancelled — the "shed remainder". With the watchdog the
          conservation law becomes [transferred = completed volume +
          wasted + shed_volume]; without it [shed_volume] is 0 and the
          law reduces to the original one. *)
  suspicions : int;
      (** suspicion events the failure detector raised (real crash
          suspicions and false positives alike); 0 without
          [?detector] *)
  false_suspicions : int;
      (** suspicions that cleared without a confirmation — recoveries
          inside the confirmation window plus seeded false positives *)
  detections : int;
      (** confirmed-dead events — the moments the engine actually
          settled a crash. With zero detection latency this equals the
          number of crashed servers the engine reacted to *)
  bytes_resumed : float;
      (** megabits of partial progress preserved by resume-enabled
          replacement fetches (crash re-homes, watchdog swaps, retry
          re-homes) — bytes that would have been [wasted] under
          restart-from-zero. Counted once, when the replacement is
          installed. 0 without a resume-enabled [?retry] *)
  retries_attempted : int;
      (** same-source retries fired on stalled flows; 0 without
          [?retry] *)
  retries_exhausted : int;
      (** stalled flows whose retry budget ran out, triggering a
          re-home attempt *)
}

val completed : run -> int
(** Number of tasks that met their deadline. *)

val completed_fraction : run -> float

val remaining_volume_gb : run -> float
(** Total volume left untransferred at failed tasks' deadlines, in
    gigabytes — the paper's "remaining volume". *)

val normalized_completion_times : run -> float list
(** For completed tasks: (finish - arrival) / (deadline - arrival), the
    x-axis of the paper's Fig. 4 CDF. *)

val mean_plan_time : run -> float
(** Average seconds per scheduling-plan computation (Fig. 5 metric). *)
