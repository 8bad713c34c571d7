let lpall () =
  let sources = Algorithm.Least_congested in
  let lp_state = S3_lp.Lp.create_state () in
  let allocate (v : Problem.view) =
    match Lazy.force v.Problem.flows with
    | [] -> []
    | flows ->
      let demand f =
        let l = Rtf.flow_lrb v f in
        if Float.is_finite l then l else 0.
      in
      let demands = List.map (fun f -> (f, demand f)) flows in
      let theta = Allocation.max_feasible_scale v demands in
      (* Shave the scale slightly so the LP's lower bounds are strictly
         interior and immune to rounding in the scale computation. *)
      let theta = theta *. (1. -. 1e-9) in
      let lower f = theta *. demand f in
      (match Allocation.lp_allocate ~state:lp_state ~lower v flows with
       | Some rates -> rates
       | None ->
         (* Numerical fallback: the scaled demands themselves are
            feasible by construction of theta. *)
         List.map (fun (f, d) -> (f.Problem.flow_id, theta *. d)) demands)
  in
  { Algorithm.name = "LPAll";
    select_sources = Algorithm.source_selector sources;
    allocate;
    abandon_expired = true;
    reselect = Some (Algorithm.reselect_of_policy sources)
  }
