(* A persistent pool of worker domains executing batches of indexed
   jobs. Built directly on the stdlib Domain / Mutex / Condition
   primitives (no external task library): jobs here are coarse —
   whole scenario replications, milliseconds to seconds each — so
   claiming work under a mutex is far below measurement noise, and in
   exchange every batch transition is plainly race-free.

   Protocol: all mutable batch fields are written under [mutex], and a
   batch is identified by its [generation]. Workers sleep on
   [work_ready] until the generation moves, then claim ascending job
   indices one at a time, validating the generation on every claim so
   a straggler waking late (or still draining a finished batch) can
   never touch the next batch's jobs. The submitting caller works
   through the same claim loop, then sleeps on [work_done] until every
   job of its generation is accounted for. The first job exception
   cancels the batch's unclaimed jobs and is re-raised by [run] once
   in-flight jobs have drained. *)

type t = {
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable batch : int -> unit;  (* current batch body *)
  mutable batch_len : int;
  mutable next : int;  (* next unclaimed job index *)
  mutable finished : int;  (* jobs finished or cancelled *)
  mutable error : exn option;  (* first failure of the batch *)
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
}

(* Claim-and-run loop for one generation; returns when the generation
   has no more jobs (or has moved on). Shared by workers and the
   submitting caller. *)
let rec work t gen =
  Mutex.lock t.mutex;
  if t.generation <> gen || t.next >= t.batch_len then Mutex.unlock t.mutex
  else begin
    let i = t.next in
    t.next <- i + 1;
    let body = t.batch in
    Mutex.unlock t.mutex;
    let failure =
      (* lint: allow catch-all-exn — the pool must survive any job
         failure to keep its siblings and the pool itself usable; the
         exception is stored and re-raised from [run]. *)
      match body i with () -> None | exception e -> Some e
    in
    Mutex.lock t.mutex;
    if t.generation = gen then begin
      t.finished <- t.finished + 1;
      (match failure with
       | Some e when t.error = None ->
         t.error <- Some e;
         (* Cancel unclaimed jobs: account for them as finished so the
            caller's drain completes once in-flight jobs return. *)
         t.finished <- t.finished + (t.batch_len - t.next);
         t.next <- t.batch_len
       | _ -> ());
      if t.finished >= t.batch_len then Condition.broadcast t.work_done
    end;
    Mutex.unlock t.mutex;
    work t gen
  end

let rec worker_loop t gen =
  Mutex.lock t.mutex;
  while (not t.shutdown) && t.generation = gen do
    Condition.wait t.work_ready t.mutex
  done;
  let stop = t.shutdown in
  let gen' = t.generation in
  Mutex.unlock t.mutex;
  if not stop then begin
    work t gen';
    worker_loop t gen'
  end

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    { mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      batch = ignore;
      batch_len = 0;
      next = 0;
      finished = 0;
      error = None;
      shutdown = false;
      workers = []
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let run t ~jobs body =
  if jobs < 0 then invalid_arg "Pool.run: negative job count";
  if jobs > 0 then begin
    Mutex.lock t.mutex;
    if t.shutdown then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end
    else begin
      t.generation <- t.generation + 1;
      let gen = t.generation in
      t.batch <- body;
      t.batch_len <- jobs;
      t.next <- 0;
      t.finished <- 0;
      t.error <- None;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      work t gen;
      Mutex.lock t.mutex;
      while t.generation = gen && t.finished < t.batch_len do
        Condition.wait t.work_done t.mutex
      done;
      let err = t.error in
      t.batch <- ignore;
      Mutex.unlock t.mutex;
      match err with Some e -> raise e | None -> ()
    end
  end

let shutdown t =
  Mutex.lock t.mutex;
  let already = t.shutdown in
  t.shutdown <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  if not already then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ~domains f =
  let t = create ~domains in
  match f t with
  | v ->
    shutdown t;
    v
  | exception e ->
    shutdown t;
    raise e
