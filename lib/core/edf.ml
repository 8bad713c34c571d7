module Task = S3_workload.Task

let deadline_key _v ((t : Task.t), _) = t.Task.deadline

let edf ?(name = "EDF") ?(sources = Algorithm.Random_sources 2) () =
  { Algorithm.name;
    select_sources = Algorithm.source_selector sources;
    allocate = (fun v -> Allocation.priority_fill v (Sequencing.head_only v ~key:deadline_key));
    abandon_expired = false;
    reselect = Some (Algorithm.reselect_of_policy sources)
  }

let dis_edf ?(sources = Algorithm.Random_sources 2) () =
  { Algorithm.name = "DisEDF";
    select_sources = Algorithm.source_selector sources;
    allocate =
      (fun v -> Allocation.priority_fill v (Sequencing.disjoint_groups v ~key:deadline_key));
    abandon_expired = false;
    reselect = Some (Algorithm.reselect_of_policy sources)
  }
