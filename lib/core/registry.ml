let names =
  [ "fifo"; "disfifo"; "edf"; "disedf"; "lstf"; "lpall"; "lpst"; "lpst-p1"; "lpst-p2";
    "lpst-p3"; "sp-ff"; "edf-cong" ]

let make name =
  let seed = 42 in
  match String.lowercase_ascii name with
  | "fifo" -> Fifo.fifo ~sources:(Algorithm.Random_sources seed) ()
  | "disfifo" -> Fifo.dis_fifo ~sources:(Algorithm.Random_sources (seed + 1)) ()
  | "edf" -> Edf.edf ~sources:(Algorithm.Random_sources (seed + 2)) ()
  | "disedf" -> Edf.dis_edf ~sources:(Algorithm.Random_sources (seed + 3)) ()
  | "lstf" -> Lstf.lstf ~sources:(Algorithm.Random_sources (seed + 4)) ()
  | "lpall" -> Lpall.lpall ()
  | "lpst" -> Lpst.lpst ()
  (* Fig. 3a ablations: each keeps exactly one LPST phase and replaces
     the other two with the paper's simple heuristics (random sources,
     start-time-ordered admission, plain-LRB bandwidth). *)
  | "lpst-p1" ->
    Lpst.lpst ~admission:Lpst.Arrival_order ~bandwidth:Lpst.Lrb_only ~name:"LPST-P1" ()
  | "lpst-p2" ->
    Lpst.lpst ~sources:(Algorithm.Random_sources (seed + 5)) ~bandwidth:Lpst.Lrb_only
      ~name:"LPST-P2" ()
  | "lpst-p3" ->
    Lpst.lpst ~sources:(Algorithm.Random_sources (seed + 6)) ~admission:Lpst.Arrival_order
      ~name:"LPST-P3" ()
  (* The two strawman policies of the paper's Fig. 1 discussion (3.1):
     shortest-path selection + first-fit LRB admission, and EDF with
     congestion-aware selection. *)
  | "sp-ff" ->
    Lpst.lpst ~sources:Algorithm.Shortest_path ~admission:Lpst.Arrival_order
      ~bandwidth:Lpst.Lrb_only ~name:"SP+FirstFit" ()
  | "edf-cong" -> Edf.edf ~name:"EDF+CongSel" ~sources:Algorithm.Least_congested ()
  | other -> invalid_arg (Printf.sprintf "Registry.make: unknown algorithm %S" other)
