type kind =
  | Repair
  | Rebalance
  | Backup
  | Generic

type t = {
  id : int;
  kind : kind;
  arrival : float;
  deadline : float;
  volume : float;
  k : int;
  sources : int array;
  destination : int;
}

let kind_label = function
  | Repair -> "repair"
  | Rebalance -> "rebalance"
  | Backup -> "backup"
  | Generic -> "generic"

let pp ppf t =
  Format.fprintf ppf "task#%d[%s k=%d v=%.1fMb %s->%d s=%.2f d=%.2f]" t.id
    (kind_label t.kind) t.k t.volume
    (String.concat "," (Array.to_list (Array.map string_of_int t.sources)))
    t.destination t.arrival t.deadline

let v ~id ?(kind = Generic) ~arrival ~deadline ~volume ~k ~sources ~destination () =
  (* Each later comparison is false on NaN, so finiteness comes first. *)
  if not (Float.is_finite arrival && Float.is_finite deadline && Float.is_finite volume) then
    invalid_arg "Task.v: arrival, deadline and volume must be finite";
  if arrival < 0. then invalid_arg "Task.v: negative arrival";
  if deadline <= arrival then invalid_arg "Task.v: deadline must follow arrival";
  if volume <= 0. then invalid_arg "Task.v: volume must be positive";
  if k <= 0 then invalid_arg "Task.v: k must be positive";
  if Array.length sources < k then invalid_arg "Task.v: fewer candidate sources than k";
  (* Candidate sets are a stripe's chunks, a handful of servers: a
     pairwise scan in plain loops is cheaper than hashing and allocates
     nothing. *)
  for i = 0 to Array.length sources - 1 do
    let s = sources.(i) in
    if s = destination then invalid_arg "Task.v: a source equals the destination";
    for j = 0 to i - 1 do
      if sources.(j) = s then invalid_arg "Task.v: duplicate source"
    done
  done;
  { id; kind; arrival; deadline; volume; k; sources; destination }

let total_volume t = float_of_int t.k *. t.volume

let compare_arrival a b =
  match Float.compare a.arrival b.arrival with
  | 0 -> Int.compare a.id b.id
  | c -> c
