(* The allocation contract as typed violations: the checker the tests
   hold [Algorithm.allocate] results against — capacity per entity, an
   optional per-flow floor (pass the LRB to check the deadline
   guarantee of admitted tasks), non-negative rates, and no rates for
   flows outside the view. *)

module Problem = S3_core.Problem

type violation =
  | Over_capacity of {
      entity : int;
      allocated : float;
      available : float;
    }
  | Below_floor of {
      flow_id : int;
      rate : float;
      floor : float;
    }
  | Negative_rate of {
      flow_id : int;
      rate : float;
    }
  | Unknown_flow of { flow_id : int }

let pp_violation ppf = function
  | Over_capacity { entity; allocated; available } ->
    Format.fprintf ppf "entity %d over capacity: %.3f allocated of %.3f available" entity
      allocated available
  | Below_floor { flow_id; rate; floor } ->
    Format.fprintf ppf "flow %d below floor: %.3f < %.3f" flow_id rate floor
  | Negative_rate { flow_id; rate } ->
    Format.fprintf ppf "flow %d has negative rate %.3f" flow_id rate
  | Unknown_flow { flow_id } -> Format.fprintf ppf "rate for unknown flow %d" flow_id

let check ?(tol = 1e-6) ?(floor = fun _ -> 0.) (v : Problem.view) rates =
  let vflows = Lazy.force v.Problem.flows in
  let known = Hashtbl.create 32 in
  List.iter (fun f -> Hashtbl.replace known f.Problem.flow_id f) vflows;
  let rate_of fid =
    List.fold_left (fun acc (id, r) -> if id = fid then acc +. r else acc) 0. rates
  in
  let violations = ref [] in
  (* Unknown flows and negative rates from the raw assignment. *)
  List.iter
    (fun (fid, r) ->
      if not (Hashtbl.mem known fid) then violations := Unknown_flow { flow_id = fid } :: !violations
      else if r < -.tol then violations := Negative_rate { flow_id = fid; rate = r } :: !violations)
    rates;
  (* Per-flow floors. *)
  List.iter
    (fun f ->
      let want = floor f in
      let got = rate_of f.Problem.flow_id in
      if got < want -. tol then
        violations := Below_floor { flow_id = f.Problem.flow_id; rate = got; floor = want } :: !violations)
    vflows;
  (* Per-entity capacity. *)
  let usage = Hashtbl.create 32 in
  List.iter
    (fun f ->
      let r = max 0. (rate_of f.Problem.flow_id) in
      if r > 0. then
        Array.iter
          (fun e ->
            Hashtbl.replace usage e (Option.value ~default:0. (Hashtbl.find_opt usage e) +. r))
          (Problem.route_arr v f))
    vflows;
  Hashtbl.fold (fun entity allocated acc -> (entity, allocated) :: acc) usage []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (entity, allocated) ->
         let available = v.Problem.available entity in
         if allocated > available +. tol then
           violations := Over_capacity { entity; allocated; available } :: !violations);
  !violations

let ok ?tol ?floor v rates = check ?tol ?floor v rates = []
