module Task = S3_workload.Task

let arrival_key _v ((t : Task.t), _) = t.Task.arrival

let fifo ?(sources = Algorithm.Random_sources 1) () =
  { Algorithm.name = "FIFO";
    select_sources = Algorithm.source_selector sources;
    allocate = (fun v -> Allocation.priority_fill v (Sequencing.head_only v ~key:arrival_key));
    abandon_expired = false;
    reselect = Some (Algorithm.reselect_of_policy sources)
  }

let dis_fifo ?(sources = Algorithm.Random_sources 1) () =
  { Algorithm.name = "DisFIFO";
    select_sources = Algorithm.source_selector sources;
    allocate =
      (fun v -> Allocation.priority_fill v (Sequencing.disjoint_groups v ~key:arrival_key));
    abandon_expired = false;
    reselect = Some (Algorithm.reselect_of_policy sources)
  }
