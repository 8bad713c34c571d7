let slack_key v (_, flows) = Rtf.task_rtf v flows

let lstf ?(sources = Algorithm.Random_sources 3) () =
  { Algorithm.name = "LSTF";
    select_sources = Algorithm.source_selector sources;
    allocate = (fun v -> Allocation.priority_fill v (Sequencing.head_only v ~key:slack_key));
    abandon_expired = false;
    reselect = Some (Algorithm.reselect_of_policy sources)
  }
