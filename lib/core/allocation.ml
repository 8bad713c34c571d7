module Lp = S3_lp.Lp

type rates = (int * float) list

(* A flow whose route is empty (same-server copy) consumes no shared
   capacity; give it a rate that finishes it promptly. *)
let unbounded_rate (f : Problem.flow) = max 1. (f.Problem.remaining *. 1000.)

let water_fill (v : Problem.view) flows =
  let routes = List.map (fun f -> (f, Problem.route v f)) flows in
  let local, networked = List.partition (fun (_, r) -> r = []) routes in
  let remaining = Hashtbl.create 32 in
  let touch e =
    if not (Hashtbl.mem remaining e) then Hashtbl.replace remaining e (v.Problem.available e)
  in
  List.iter (fun (_, r) -> List.iter touch r) networked;
  let level = ref 0. in
  let frozen = Hashtbl.create 16 in  (* flow_id -> rate *)
  let unfrozen = ref networked in
  let users e =
    List.fold_left (fun n (_, r) -> if List.mem e r then n + 1 else n) 0 !unfrozen
  in
  while !unfrozen <> [] do
    (* Tightest entity bounds the common increment. *)
    let delta = ref infinity in
    Hashtbl.iter
      (fun e cap ->
        let n = users e in
        if n > 0 then delta := min !delta (cap /. float_of_int n))
      remaining;
    if not (Float.is_finite !delta) then begin
      (* No capacity entity constrains the remaining flows (cannot
         happen for non-empty routes, but keep the loop total). *)
      List.iter
        (fun ((f : Problem.flow), _) -> Hashtbl.replace frozen f.Problem.flow_id (unbounded_rate f))
        !unfrozen;
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
      let now_frozen, still =
        List.partition (fun (_, r) -> List.exists saturated r) !unfrozen
      in
      List.iter
        (fun ((f : Problem.flow), _) -> Hashtbl.replace frozen f.Problem.flow_id !level)
        now_frozen;
      (* Degenerate guard: if nothing froze despite a finite delta,
         freeze everything at the current level to terminate. *)
      if now_frozen = [] && !delta <= 1e-12 then begin
        List.iter
          (fun ((f : Problem.flow), _) -> Hashtbl.replace frozen f.Problem.flow_id !level)
          still;
        unfrozen := []
      end
      else unfrozen := still
    end
  done;
  List.map (fun ((f : Problem.flow), _) -> (f.Problem.flow_id, unbounded_rate f)) local
  (* lint: allow partial-stdlib — the water-filling loop above only ends
     once [unfrozen] is empty, and every networked flow leaves [unfrozen]
     by being written into [frozen] first *)
  @ List.map (fun ((f : Problem.flow), _) -> (f.Problem.flow_id, Hashtbl.find frozen f.Problem.flow_id)) networked

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
  let all = ref [] in
  List.iter
    (fun group ->
      let sub_view = { v with Problem.available = (fun e -> max 0. (avail e)) } in
      let rates = water_fill sub_view group in
      List.iter
        (fun (fid, rate) ->
          let f = List.find (fun (f : Problem.flow) -> f.Problem.flow_id = fid) group in
          List.iter
            (fun e -> Hashtbl.replace capacity e (avail e -. rate))
            (Problem.route v f))
        rates;
      all := rates @ !all)
    groups;
  !all

let lp_allocate ?state ?incremental:_ ?(lower = fun _ -> 0.) (v : Problem.view) flows =
  let routes = List.map (fun f -> (f, Problem.route_arr v f)) flows in
  let local, networked = List.partition (fun (_, r) -> Array.length r = 0) routes in
  let local_rates =
    List.map
      (fun ((f : Problem.flow), _) -> (f.Problem.flow_id, max (lower f) (unbounded_rate f)))
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
        ~capacity:(fun e -> max 0. (v.Problem.available e))
        ~lower:(fun (f, _) -> max 0. (lower f))
        networked
    in
    match Lp.solve ~state problem with
    | Error _ -> None
    | Ok { Lp.values; _ } ->
      let rates =
        List.mapi
          (fun j ((f : Problem.flow), _) -> (f.Problem.flow_id, max 0. values.(j)))
          networked
      in
      Some (local_rates @ rates))

let max_feasible_scale (v : Problem.view) demands =
  let load = Hashtbl.create 64 in
  List.iter
    (fun ((f : Problem.flow), d) ->
      if d > 0. then
        List.iter
          (fun e -> Hashtbl.replace load e (Option.value ~default:0. (Hashtbl.find_opt load e) +. d))
          (Problem.route v f))
    demands;
  Hashtbl.fold
    (fun e total acc ->
      if total <= 0. then acc
      else min acc (max 0. (v.Problem.available e) /. total))
    load 1.
