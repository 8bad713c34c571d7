module Task = S3_workload.Task

let lrb ~now ~deadline ~remaining =
  if remaining < 0. then invalid_arg "Rtf.lrb: negative remaining volume";
  if deadline <= now then infinity else remaining /. (deadline -. now)

let flow_lrb (v : Problem.view) (f : Problem.flow) =
  lrb ~now:v.Problem.now ~deadline:f.Problem.task.Task.deadline ~remaining:f.Problem.remaining

(* [max]/[min] at float spelled out as Stdlib defines them, so the
   comparison is a float one rather than a [caml_compare] call; not
   [Float.max]/[Float.min], which order NaN and -0. differently. *)
let flow_rtf (v : Problem.view) (f : Problem.flow) =
  let cap = Problem.flow_path_available v f in
  let now = v.Problem.now and arrival = f.Problem.task.Task.arrival in
  let start = if now >= arrival then now else arrival in
  if cap <= 0. then neg_infinity
  else f.Problem.task.Task.deadline -. start -. (f.Problem.remaining /. cap)

let task_rtf v = function
  | [] -> invalid_arg "Rtf.task_rtf: no flows"
  | flows ->
    List.fold_left
      (fun acc f ->
        let r = flow_rtf v f in
        if acc <= r then acc else r)
      infinity flows

let path_feasible (v : Problem.view) (t : Task.t) ~src ~remaining =
  let need = lrb ~now:v.Problem.now ~deadline:t.Task.deadline ~remaining in
  Float.is_finite need
  && need <= Problem.path_available v ~src ~dst:t.Task.destination +. 1e-9
