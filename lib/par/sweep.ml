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

let map ?domains n f =
  if n < 0 then invalid_arg "Sweep.map: negative job count";
  let domains = match domains with Some d -> d | None -> domain_count () in
  let out = Array.make n None in
  (* The caller and [min domains n - 1] spawned domains claim ascending
     indices from one counter. The first job exception is kept, stops
     every later claim, and is re-raised once all domains have
     joined. *)
  let next = Atomic.make 0 and error = Atomic.make None in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n && Option.is_none (Atomic.get error) then begin
      (* lint: allow catch-all-exn — a failed job must not take its
         domain down before the others join; the exception is
         re-raised below. *)
      (match f i with
       | v -> out.(i) <- Some v
       | exception e -> ignore (Atomic.compare_and_set error None (Some e) : bool));
      work ()
    end
  in
  let spawned = List.init (max 0 (min domains n - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join spawned;
  Option.iter raise (Atomic.get error);
  Array.map (function Some v -> v | None -> assert false) out

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
