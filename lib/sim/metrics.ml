module Task = S3_workload.Task

type outcome = {
  task : Task.t;
  sources : int array;
  completed : bool;
  finish_time : float;
  remaining : float;
}

type run = {
  algorithm : string;
  outcomes : outcome list;
  horizon : float;
  transferred : float;
  wasted : float;
  utilization : float;
  plan_time : float;
  plan_calls : int;
  events : int;
  clamp_events : int;
  flows_killed : int;
  tasks_rehomed : int;
  tasks_lost : int;
  swaps_attempted : int;
  swaps_successful : int;
  tasks_rescued : int;
  tasks_shed_early : int;
  shed_volume : float;
  suspicions : int;
  false_suspicions : int;
  detections : int;
  bytes_resumed : float;
  retries_attempted : int;
  retries_exhausted : int;
}

let completed r = List.length (List.filter (fun o -> o.completed) r.outcomes)

let completed_fraction r =
  match r.outcomes with
  | [] -> 0.
  | os -> float_of_int (completed r) /. float_of_int (List.length os)

let remaining_volume r =
  List.fold_left (fun acc o -> acc +. o.remaining) 0. r.outcomes

let remaining_volume_gb r = remaining_volume r /. 8000.

let normalized_completion_times r =
  List.filter_map
    (fun o ->
      if not o.completed then None
      else begin
        let span = o.task.Task.deadline -. o.task.Task.arrival in
        Some ((o.finish_time -. o.task.Task.arrival) /. span)
      end)
    r.outcomes

let mean_plan_time r =
  if r.plan_calls = 0 then 0. else r.plan_time /. float_of_int r.plan_calls
