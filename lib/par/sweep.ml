(* Deterministic parallel sweeps: run independent scenario
   replications across domains and return results in submission
   order, so a sweep's output is byte-identical whether it ran on one
   domain or many. Determinism rests on three caller-side rules the
   evaluation harness follows:
   - every job derives all randomness from its own index (a
     per-scenario PRNG seed), never from shared state;
   - every job builds its own topology/task objects — shared
     structures with internal caches (e.g. lazy route tables) are not
     domain-safe;
   - results are written into the slot of the job's index, so merge
     order is the index order, not completion order. *)

let default_domains = ref None

let domain_count () =
  match !default_domains with
  | Some n -> n
  | None ->
    let n =
      match Sys.getenv_opt "S3_DOMAINS" with
      | Some s ->
        (match int_of_string_opt (String.trim s) with
         | Some n when n >= 1 -> n
         | _ -> Domain.recommended_domain_count ())
      | None -> Domain.recommended_domain_count ()
    in
    let n = max 1 (min n 64) in
    default_domains := Some n;
    n

let set_domain_count n =
  if n < 1 then invalid_arg "Sweep.set_domain_count: domains must be >= 1";
  default_domains := Some (min n 64)

let map ?domains n f =
  if n < 0 then invalid_arg "Sweep.map: negative job count";
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let body i = out.(i) <- Some (f i) in
    let domains = match domains with Some d -> d | None -> domain_count () in
    if domains <= 1 then
      for i = 0 to n - 1 do
        body i
      done
    else Pool.with_pool ~domains:(min domains n) (fun p -> Pool.run p ~jobs:n body);
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_ranges ?domains n f =
  if n < 0 then invalid_arg "Sweep.map_ranges: negative count";
  if n = 0 then [||]
  else begin
    let jobs = match domains with Some d -> max 1 d | None -> domain_count () in
    (* Balanced contiguous partition of [0, n): the first [n mod jobs]
       ranges carry one extra index. Depends only on (n, jobs), so a
       caller pinning [domains] gets the same partition every run. *)
    let jobs = min jobs n in
    let base = n / jobs and extra = n mod jobs in
    let bounds =
      Array.init jobs (fun i ->
          let lo = (i * base) + min i extra in
          (lo, lo + base + if i < extra then 1 else 0))
    in
    map ?domains jobs (fun i ->
        let lo, hi = bounds.(i) in
        f ~lo ~hi)
  end

let map_list f xs =
  let input = Array.of_list xs in
  Array.to_list (map (Array.length input) (fun i -> f input.(i)))
