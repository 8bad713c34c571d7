(* Named fio-style workload profiles and the spec grammar that selects
   them from the CLI. The six profiles translate the classic fio
   vocabulary into background-traffic shape for an erasure-coded
   cluster: what mixes of repair / rebalance / backup traffic arrive,
   how big the chunks are, how hard the deadlines press, and how much
   foreground load the cluster carries while the background traffic
   runs. *)

module Table = S3_util.Table

type t = {
  name : string;
  summary : string;
  arrival_rate : float;
  chunk_size_mb : float;
  mix : Generator.kind_profile list;
  deadline_jitter : float;
  fg_frac : float;
}

(* Kind-mix shorthands. Every coded entry starts at the paper's (9,6);
   the matrix runner re-codes them via [compile_mix]. *)
let coded kind weight factor =
  { Generator.kind; weight; profile_code = Some (9, 6); profile_deadline_factor = factor }

let move weight factor =
  { Generator.kind = Task.Rebalance; weight; profile_code = None;
    profile_deadline_factor = factor }

let all =
  [ { name = "sequential-rw";
      summary = "streaming bulk moves and lax backups, 128 MB chunks";
      arrival_rate = 0.3;
      chunk_size_mb = 128.;
      mix = [ move 0.55 8.; coded Task.Backup 0.45 16. ];
      deadline_jitter = 0.1;
      fg_frac = 0.1
    };
    { name = "random-rw";
      summary = "small-chunk repair churn under tight deadlines";
      arrival_rate = 2.;
      chunk_size_mb = 8.;
      mix = [ coded Task.Repair 0.8 4.; move 0.2 6. ];
      deadline_jitter = 0.5;
      fg_frac = 0.2
    };
    { name = "mixed-70-30";
      summary = "70% repair reads / 30% rebalance writes at 64 MB";
      arrival_rate = 0.8;
      chunk_size_mb = 64.;
      mix = [ coded Task.Repair 0.7 6.; move 0.3 12. ];
      deadline_jitter = 0.3;
      fg_frac = 0.15
    };
    { name = "db-oltp";
      summary = "latency-critical 4 MB repairs on a busy cluster";
      arrival_rate = 4.;
      chunk_size_mb = 4.;
      mix = [ coded Task.Repair 0.9 3.; move 0.1 4. ];
      deadline_jitter = 0.2;
      fg_frac = 0.35
    };
    { name = "app-server";
      summary = "balanced repair/backup/rebalance blend, 16 MB chunks";
      arrival_rate = 1.2;
      chunk_size_mb = 16.;
      mix = [ coded Task.Repair 0.5 6.; coded Task.Backup 0.3 18.; move 0.2 10. ];
      deadline_jitter = 0.4;
      fg_frac = 0.25
    };
    { name = "data-pipeline";
      summary = "huge-chunk backup waves with generous deadlines";
      arrival_rate = 0.15;
      chunk_size_mb = 256.;
      mix = [ coded Task.Backup 0.7 30.; move 0.3 20. ];
      deadline_jitter = 0.15;
      fg_frac = 0.05
    }
  ]

let names = List.map (fun p -> p.name) all

let find name =
  let needle = String.lowercase_ascii (String.trim name) in
  match List.find_opt (fun p -> String.equal p.name needle) all with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown profile %S (expected one of %s)" name
         (String.concat ", " names))

(* ---- specs ---- *)

type spec = {
  profile : t;
  scale : float;
  tasks : int option;
}

let default_tasks = 200

let arrival_rate s = s.profile.arrival_rate *. s.scale

let task_count ~default s = Option.value s.tasks ~default

let to_string s =
  Printf.sprintf "profile=%s,scale=%s%s" s.profile.name (Table.fmt_exact s.scale)
    (match s.tasks with None -> "" | Some n -> Printf.sprintf ",tasks=%d" n)

let of_string str =
  let err fmt = Printf.ksprintf (fun m -> Error ("profile " ^ m)) fmt in
  let items =
    String.split_on_char ',' str |> List.map String.trim
    |> List.filter (fun item -> item <> "")
  in
  if items = [] then Error "profile spec is empty (expected NAME[,scale=F][,tasks=N])"
  else
    let rec go acc = function
      | [] -> (
        match acc with
        | None, _, _ -> err "spec %S names no profile" str
        | Some profile, scale, tasks ->
          (* Each value was range-checked as it was read. *)
          Ok { profile; scale = Option.value scale ~default:1.; tasks })
      | item :: rest -> (
        let profile_seen, scale_seen, tasks_seen = acc in
        match String.index_opt item '=' with
        | None -> (
          (* A bare item is a profile name: 'db-oltp,scale=1.5'. *)
          if Option.is_some profile_seen then err "%S: profile named twice" item
          else
            match find item with
            | Ok p -> go (Some p, scale_seen, tasks_seen) rest
            | Error e -> Error e)
        | Some eq -> (
          let key = String.lowercase_ascii (String.trim (String.sub item 0 eq)) in
          let value = String.trim (String.sub item (eq + 1) (String.length item - eq - 1)) in
          match key with
          | "profile" -> (
            if Option.is_some profile_seen then err "%S: profile named twice" item
            else
              match find value with
              | Ok p -> go (Some p, scale_seen, tasks_seen) rest
              | Error e -> Error e)
          | "scale" -> (
            match float_of_string_opt value with
            | Some f when Float.is_finite f && f > 0. ->
              go (profile_seen, Some f, tasks_seen) rest
            | Some _ -> err "scale: %S must be finite and > 0" value
            | None -> err "scale: %S is not a number" value)
          | "tasks" -> (
            match int_of_string_opt value with
            | Some n when n >= 0 -> go (profile_seen, scale_seen, Some n) rest
            | Some _ -> err "tasks: %S must be >= 0" value
            | None -> err "tasks: %S is not an integer" value)
          | _ -> err "%S: unknown key %S (expected profile, scale or tasks)" item key))
    in
    go (None, None, None) items

(* ---- compilation into Generator parameters ---- *)

let compile_mix ?code p =
  match code with
  | None -> p.mix
  | Some (n, k) ->
    if k <= 0 || n < k then invalid_arg "Profile.compile_mix: bad (n, k)";
    List.map
      (fun (kp : Generator.kind_profile) ->
        match kp.Generator.profile_code with
        | None -> kp
        | Some _ -> { kp with Generator.profile_code = Some (n, k) })
      p.mix

let generate ?code ?(tasks = default_tasks) g topo s =
  let num_tasks = task_count ~default:tasks s in
  Generator.generate_mixed g topo ~num_tasks ~arrival_rate:(arrival_rate s)
    ~chunk_size_mb:s.profile.chunk_size_mb
    ~deadline_jitter:s.profile.deadline_jitter
    ~profiles:(compile_mix ?code s.profile) ()
