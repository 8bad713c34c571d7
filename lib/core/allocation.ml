module Lp = S3_lp.Lp

type rates = (int * float) list

(* A flow whose route is empty (same-server copy) consumes no shared
   capacity; give it a rate that finishes it promptly. *)
let unbounded_rate (f : Problem.flow) =
  let r = f.Problem.remaining *. 1000. in
  if 1. >= r then 1. else r

(* One flow being water-filled: its route, and its rate once frozen. *)
type fill = {
  flow : Problem.flow;
  route : int array;
  mutable rate : float;
}

(* Water-fill [flows] over [available]; returns every flow with its
   route and rate, the empty-route ones first. *)
let water_fill (v : Problem.view) available flows =
  let fills = List.map (fun f -> { flow = f; route = Problem.route_arr v f; rate = 0. }) flows in
  let local, networked = List.partition (fun x -> Array.length x.route = 0) fills in
  List.iter (fun x -> x.rate <- unbounded_rate x.flow) local;
  let remaining = Hashtbl.create 32 in
  let touch e = if not (Hashtbl.mem remaining e) then Hashtbl.replace remaining e (available e) in
  List.iter (fun x -> Array.iter touch x.route) networked;
  let level = ref 0. in
  let unfrozen = ref networked in
  let users e =
    List.fold_left (fun n x -> if Array.mem e x.route then n + 1 else n) 0 !unfrozen
  in
  let freeze_at rate = List.iter (fun x -> x.rate <- rate) in
  while !unfrozen <> [] do
    (* Tightest entity bounds the common increment. *)
    let delta = ref infinity in
    Hashtbl.iter
      (fun e cap ->
        let n = users e in
        if n > 0 then begin
          let d = cap /. float_of_int n in
          delta := if !delta <= d then !delta else d
        end)
      remaining;
    if not (Float.is_finite !delta) then begin
      (* No capacity entity constrains the remaining flows (cannot
         happen for non-empty routes, but keep the loop total). *)
      List.iter (fun x -> x.rate <- unbounded_rate x.flow) !unfrozen;
      unfrozen := []
    end
    else begin
      level := !level +. !delta;
      (* Drain every entity by what the unfrozen flows through it consumed. *)
      Hashtbl.iter
        (fun e cap ->
          let n = users e in
          if n > 0 then Hashtbl.replace remaining e (cap -. (!delta *. float_of_int n)))
        remaining;
      (* Freeze flows crossing a now-saturated entity. *)
      (* lint: allow partial-stdlib — [remaining] is seeded with every
         entity on any flow's route before the loop; [saturated] is only
         applied to entities drawn from those same routes *)
      let saturated e = Hashtbl.find remaining e <= 1e-9 in
      let now_frozen, still = List.partition (fun x -> Array.exists saturated x.route) !unfrozen in
      freeze_at !level now_frozen;
      (* Degenerate guard: if nothing froze despite a finite delta,
         freeze everything at the current level to terminate. *)
      if now_frozen = [] && !delta <= 1e-12 then begin
        freeze_at !level still;
        unfrozen := []
      end
      else unfrozen := still
    end
  done;
  local @ networked

let priority_fill (v : Problem.view) groups =
  (* Serve groups in order against a shrinking capacity map. *)
  let capacity = Hashtbl.create 64 in
  let avail e =
    match Hashtbl.find_opt capacity e with
    | Some c -> c
    | None ->
      let c = v.Problem.available e in
      Hashtbl.replace capacity e c;
      c
  in
  let available e =
    let a = avail e in
    if 0. >= a then 0. else a
  in
  let all = ref [] in
  List.iter
    (fun group ->
      let fills = water_fill v available group in
      List.iter
        (fun x -> Array.iter (fun e -> Hashtbl.replace capacity e (avail e -. x.rate)) x.route)
        fills;
      all := List.map (fun x -> (x.flow.Problem.flow_id, x.rate)) fills @ !all)
    groups;
  !all

let lp_allocate ?state ?incremental:_ ?(lower = fun _ -> 0.) (v : Problem.view) flows =
  let routes = List.map (fun f -> (f, Problem.route_arr v f)) flows in
  let local, networked = List.partition (fun (_, r) -> Array.length r = 0) routes in
  let local_rates =
    List.map
      (fun ((f : Problem.flow), _) ->
        let u = unbounded_rate f in
        let lo = lower f in
        (f.Problem.flow_id, if lo >= u then lo else u))
      local
  in
  match networked with
  | [] -> Some local_rates
  | _ -> (
    (* One variable per networked flow, one capacity row per entity on
       some route, built straight into the solver state's buffers. *)
    let state = match state with Some st -> st | None -> Lp.create_state () in
    let problem =
      Lp.packing state
        ~nkeys:(Array.length (S3_net.Topology.entities v.Problem.topo))
        ~keys:snd
        ~capacity:(fun e ->
          let a = v.Problem.available e in
          if 0. >= a then 0. else a)
        ~lower:(fun (f, _) ->
          let lo = lower f in
          if 0. >= lo then 0. else lo)
        networked
    in
    match Lp.solve ~state problem with
    | Error _ -> None
    | Ok { Lp.values; _ } ->
      let rates =
        List.mapi
          (fun j ((f : Problem.flow), _) ->
            let x = values.(j) in
            (f.Problem.flow_id, if 0. >= x then 0. else x))
          networked
      in
      Some (local_rates @ rates))

let max_feasible_scale (v : Problem.view) demands =
  let load = Hashtbl.create 64 in
  List.iter
    (fun ((f : Problem.flow), d) ->
      if d > 0. then
        Array.iter
          (fun e -> Hashtbl.replace load e (Option.value ~default:0. (Hashtbl.find_opt load e) +. d))
          (Problem.route_arr v f))
    demands;
  Hashtbl.fold
    (fun e total acc ->
      if total <= 0. then acc
      else begin
        let a = v.Problem.available e in
        let c = (if 0. >= a then 0. else a) /. total in
        if acc <= c then acc else c
      end)
    load 1.
