type kernel = Table | Schedule

let kernel_name = function Table -> "table" | Schedule -> "schedule"

let kernel_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "table" -> Ok Table
  | "schedule" -> Ok Schedule
  | other ->
    Error (Printf.sprintf "unknown codec kernel %S (expected table or schedule)" other)

let default = ref Schedule
let set_default_kernel k = default := k
let default_kernel () = !default
let resolve_kernel = function Some k -> k | None -> !default

type code = {
  n : int;
  k : int;
  packet : int;  (* packet bytes; a stripe is 8 packets *)
  gen : Matrix.t;  (* n x k; rows 0..k-1 identity, parity rows scaled Cauchy *)
  par : Matrix.t option;  (* the (n-k) x k parity block of [gen]; None iff n = k *)
  parity_tables : int array array array Lazy.t;
      (* (i - k) -> j -> mult table of gen coefficient (i, j); the
         byte-wise tail loops read these instead of doing field
         multiplications *)
  parity_bits : Bitmatrix.t Lazy.t;  (* lift of [par] *)
  encode_schedule : Schedule.t Lazy.t;  (* compiled XOR program of the lift *)
}

let make_packet ~packet_bytes ~n ~k =
  if k <= 0 || n < k || n > 256 then invalid_arg "Reed_solomon.make: need 0 < k <= n <= 256";
  if packet_bytes <= 0 || packet_bytes land 7 <> 0 then
    invalid_arg "Reed_solomon.make: packet_bytes must be a positive multiple of 8";
  (* Parity rows form a Cauchy matrix with x_i = parity row index
     (k .. n-1) and y_j = data column index (0 .. k-1); the index sets
     are disjoint, so every square submatrix of the parity block — and
     hence every k-row submatrix of [I; C] — is invertible. *)
  let gen =
    Matrix.init ~rows:n ~cols:k (fun i j ->
        if i < k then if i = j then 1 else 0
        else Gf256.inv (Gf256.add i j))
  in
  (* Scale each parity row by the nonzero constant whose lifted row has
     the fewest set bits (smallest constant wins ties, so the code is
     deterministic). Scaling a row multiplies every k x k subdeterminant
     by the same nonzero constant, so the MDS property is untouched,
     while the sparser lift shrinks every XOR schedule compiled from
     the row. *)
  for i = k to n - 1 do
    let cost c =
      let acc = ref 0 in
      for j = 0 to k - 1 do
        acc := !acc + Bitmatrix.element_ones (Gf256.mul c (Matrix.get gen i j))
      done;
      !acc
    in
    let best = ref 1 and best_cost = ref (cost 1) in
    for c = 2 to 255 do
      let w = cost c in
      if w < !best_cost then begin
        best := c;
        best_cost := w
      end
    done;
    if !best <> 1 then
      for j = 0 to k - 1 do
        Matrix.set gen i j (Gf256.mul !best (Matrix.get gen i j))
      done
  done;
  let par =
    (* n = k is pure striping: no parity rows, and Matrix has no empty
       representation. *)
    if n = k then None
    else Some (Matrix.select_rows gen (List.init (n - k) (fun i -> k + i)))
  in
  (* The three lazies are only ever forced on the parity path, which is
     unreachable when [par = None] (n = k strips without coding). *)
  let parity_matrix () =
    match par with
    | Some m -> m
    | None -> invalid_arg "Reed_solomon: no parity rows when n = k"
  in
  let parity_tables =
    lazy
      (let m = parity_matrix () in
       Array.init (n - k) (fun pi ->
           Array.init k (fun j -> Gf256.mul_table (Matrix.get m pi j))))
  in
  let parity_bits = lazy (Bitmatrix.of_matrix (parity_matrix ())) in
  let encode_schedule = lazy (Schedule.compile (Lazy.force parity_bits)) in
  { n; k; packet = packet_bytes; gen; par; parity_tables; parity_bits; encode_schedule }

let make ~n ~k = make_packet ~packet_bytes:128 ~n ~k

let n c = c.n
let k c = c.k
let packet_bytes c = c.packet
let stripe_bytes c = 8 * c.packet

let stripe_count c ~shard_length =
  if shard_length < 0 then invalid_arg "Reed_solomon.stripe_count";
  shard_length / stripe_bytes c

let shard_length c ~data_length =
  if data_length < 0 then invalid_arg "Reed_solomon.shard_length";
  (data_length + c.k - 1) / c.k

(* ------------------------------------------------------------------ *)
(* Byte-wise tail kernels                                              *)
(* ------------------------------------------------------------------ *)

(* dst.(doff+p) <- dst.(doff+p) xor tab.(src.(soff+p)): the table
   kernel's read-modify-write inner loop, one coefficient at a time. *)
let xor_mul_into ~tab ~src ~soff ~dst ~doff ~len =
  for p = 0 to len - 1 do
    Bytes.unsafe_set dst (doff + p)
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst (doff + p))
         lxor Array.unsafe_get tab (Char.code (Bytes.unsafe_get src (soff + p)))))
  done
[@@lint.allow "unsafe-indexing"
    "bounds: [check_map] verifies every source holds [soff + len] bytes and \
     every destination [doff + len] before any kernel runs; p < len by the \
     loop header, and tab is a 256-entry Gf256.mul_table indexed by a byte"]

(* Fused multiply-accumulate: one pass per output byte across all
   sources, written exactly once — the schedule kernel's tail. The
   tables array is hoisted by the caller so the inner loop is two loads
   and an XOR per source. *)
let fused_mul_rows ~tabs ~srcs ~soff ~dst ~doff ~len =
  let m = Array.length srcs in
  for p = 0 to len - 1 do
    let acc = ref 0 in
    for j = 0 to m - 1 do
      acc :=
        !acc
        lxor Array.unsafe_get
               (Array.unsafe_get tabs j)
               (Char.code (Bytes.unsafe_get (Array.unsafe_get srcs j) (soff + p)))
    done;
    Bytes.unsafe_set dst (doff + p) (Char.unsafe_chr !acc)
  done
[@@lint.allow "unsafe-indexing"
    "bounds: [check_map] verifies every source holds [soff + len] bytes and \
     the destination [doff + len] before any kernel runs; j < Array.length \
     tabs = Array.length srcs by construction in [apply_tail], and each tab \
     is a 256-entry Gf256.mul_table indexed by a byte"]

(* ------------------------------------------------------------------ *)
(* The shared map engine                                               *)
(* ------------------------------------------------------------------ *)

(* Every public operation reduces to one shape: apply an m x k GF(256)
   map [r] to the k source shards (each [len] bytes, read from offset
   0), writing output row i into dsts.(i) at byte offset dbases.(i).
   Full stripes of [8 * packet] bytes run on the packet data path
   (compiled schedule or bitmatrix reference); the remainder is the
   byte-wise GF(256) tail. *)

let check_map ~r ~srcs ~dsts ~dbases ~len =
  let m = Matrix.rows r and k = Matrix.cols r in
  if Array.length srcs <> k then invalid_arg "Reed_solomon: source shard count mismatch";
  Array.iter
    (fun s ->
      if Bytes.length s < len then invalid_arg "Reed_solomon: source shard too short")
    srcs;
  if Array.length dsts <> m || Array.length dbases <> m then
    invalid_arg "Reed_solomon: destination count mismatch";
  Array.iteri
    (fun i d ->
      if dbases.(i) < 0 || dbases.(i) + len > Bytes.length d then
        invalid_arg "Reed_solomon: destination region out of bounds")
    dsts

(* Run stripes [lo, hi) of the packet data path: sources read at
   [s * stripe], output row i written at [dbases.(i) + s * stripe].
   [on_stripe s] fires after stripe [s] is final in every output. *)
let apply_stripe_range ~kernel ~packet ~bits ~sched ~srcs ~dsts ~dbases ~lo ~hi
    ~on_stripe =
  if hi > lo then begin
    let sb = 8 * packet in
    let soffs = Array.make (Array.length srcs) (lo * sb) in
    let doffs = Array.map (fun b -> b + (lo * sb)) dbases in
    let step offs =
      for i = 0 to Array.length offs - 1 do
        offs.(i) <- offs.(i) + sb
      done
    in
    match kernel with
    | Schedule ->
      let sched = Lazy.force sched in
      for s = lo to hi - 1 do
        Schedule.apply sched ~srcs ~soffs ~dsts ~doffs ~packet;
        (match on_stripe with None -> () | Some f -> f s);
        step soffs;
        step doffs
      done
    | Table ->
      let bits = Lazy.force bits in
      for s = lo to hi - 1 do
        Bitmatrix.apply_packets bits ~srcs ~soffs ~dsts ~doffs ~packet;
        (match on_stripe with None -> () | Some f -> f s);
        step soffs;
        step doffs
      done
  end

(* The byte-wise region past the last full stripe. Both kernels compute
   the same per-byte GF(256) sums; they differ only in memory access
   pattern (write-once fused vs. zero + per-coefficient RMW). *)
let apply_tail ~kernel ~r ~tables ~srcs ~dsts ~dbases ~soff ~tail =
  if tail > 0 then begin
    let m = Matrix.rows r and k = Matrix.cols r in
    match kernel with
    | Schedule ->
      for i = 0 to m - 1 do
        let pairs = ref [] in
        for j = k - 1 downto 0 do
          if Matrix.get r i j <> 0 then
            pairs := (tables i j, srcs.(j)) :: !pairs
        done;
        let tabs = Array.of_list (List.map fst !pairs) in
        let live = Array.of_list (List.map snd !pairs) in
        if Array.length live = 0 then Bytes.fill dsts.(i) (dbases.(i) + soff) tail '\000'
        else
          fused_mul_rows ~tabs ~srcs:live ~soff ~dst:dsts.(i)
            ~doff:(dbases.(i) + soff) ~len:tail
      done
    | Table ->
      for i = 0 to m - 1 do
        Bytes.fill dsts.(i) (dbases.(i) + soff) tail '\000';
        for j = 0 to k - 1 do
          if Matrix.get r i j <> 0 then
            xor_mul_into ~tab:(tables i j) ~src:srcs.(j) ~soff ~dst:dsts.(i)
              ~doff:(dbases.(i) + soff) ~len:tail
        done
      done
  end

(* Parallel striping job: compute stripes [lo, hi) into freshly
   allocated buffers for the index-ordered merge on the calling
   domain. Kept a named top-level function so the determinism contract
   is auditable in one place: it reads only [srcs] (no job writes them)
   and the pre-forced immutable programs, and writes only buffers it
   allocated itself. *)
let striped_job ~kernel ~packet ~bits ~sched ~srcs ~outs ~lo ~hi =
  let sb = 8 * packet in
  let fresh = Array.init outs (fun _ -> Bytes.create ((hi - lo) * sb)) in
  apply_stripe_range ~kernel ~packet ~bits ~sched ~srcs ~dsts:fresh
    ~dbases:(Array.make outs (-lo * sb))
    ~lo ~hi ~on_stripe:None;
  fresh

let run_striped ~kernel ~packet ~domains ~on_stripe ~r ~tables ~bits ~sched ~srcs
    ~dsts ~dbases ~len =
  check_map ~r ~srcs ~dsts ~dbases ~len;
  let sb = 8 * packet in
  let stripes = len / sb in
  if domains <= 1 || stripes < 2 then
    apply_stripe_range ~kernel ~packet ~bits ~sched ~srcs ~dsts ~dbases ~lo:0
      ~hi:stripes ~on_stripe
  else begin
    (* Force shared lazies on the calling domain before any job can
       race on them. *)
    (match kernel with
    | Schedule -> ignore (Lazy.force sched : Schedule.t)
    | Table -> ignore (Lazy.force bits : Bitmatrix.t));
    let outs = Array.length dsts in
    let chunks =
      S3_par.Sweep.map_ranges ~domains stripes (fun ~lo ~hi ->
          (* Domain-pure: jobs read only [srcs] (which no job writes)
             and the schedule/bitmatrix lazies forced above; every
             write lands in buffers the job allocates itself, merged
             in index order below (DESIGN.md §9). *)
          (lo, striped_job ~kernel ~packet ~bits ~sched ~srcs ~outs ~lo ~hi))
    in
    (* Merge in range order, then replay the callbacks in ascending
       stripe order: results and callback sequence are byte-identical
       to the sequential run. *)
    Array.iter
      (fun (lo, fresh) ->
        Array.iteri
          (fun i buf ->
            Bytes.blit buf 0 dsts.(i) (dbases.(i) + (lo * sb)) (Bytes.length buf))
          fresh)
      chunks;
    match on_stripe with
    | None -> ()
    | Some f ->
      for s = 0 to stripes - 1 do
        f s
      done
  end;
  apply_tail ~kernel ~r ~tables ~srcs ~dsts ~dbases ~soff:(stripes * sb)
    ~tail:(len - (stripes * sb))

(* ------------------------------------------------------------------ *)
(* Public operations                                                   *)
(* ------------------------------------------------------------------ *)

(* Split [data] into k zero-padded data shards plus uninitialized
   parity shards (every parity byte is written before it is read by
   both kernels, so Bytes.create is safe). *)
let layout_shards c data =
  let dlen = Bytes.length data in
  let len = max (shard_length c ~data_length:dlen) 1 in
  let shards =
    Array.init c.n (fun i -> if i < c.k then Bytes.make len '\000' else Bytes.create len)
  in
  for j = 0 to c.k - 1 do
    let src = j * len in
    if src < dlen then Bytes.blit data src shards.(j) 0 (min len (dlen - src))
  done;
  (shards, len)

let encode_parity ~kernel ~domains ~on_stripe c shards len =
  match c.par with
  | None ->
    (* n = k: nothing but the data split; every stripe is final as soon
       as the split is, so replay the callbacks immediately. *)
    (match on_stripe with
    | None -> ()
    | Some f ->
      for s = 0 to (len / (8 * c.packet)) - 1 do
        f s
      done)
  | Some par ->
    run_striped ~kernel ~packet:c.packet ~domains ~on_stripe ~r:par
      ~tables:(fun i j -> (Lazy.force c.parity_tables).(i).(j))
      ~bits:c.parity_bits ~sched:c.encode_schedule
      ~srcs:(Array.sub shards 0 c.k)
      ~dsts:(Array.sub shards c.k (c.n - c.k))
      ~dbases:(Array.make (c.n - c.k) 0)
      ~len

let encode ?kernel c data =
  let kernel = resolve_kernel kernel in
  let shards, len = layout_shards c data in
  encode_parity ~kernel ~domains:1 ~on_stripe:None c shards len;
  shards

let encode_stripes ?kernel ?(domains = 1) ?on_stripe c data =
  let kernel = resolve_kernel kernel in
  let shards, len = layout_shards c data in
  encode_parity ~kernel ~domains ~on_stripe c shards len;
  shards

let check_shards c shards =
  let seen = Array.make c.n false in
  let len = ref (-1) in
  List.iter
    (fun (idx, s) ->
      if idx < 0 || idx >= c.n then invalid_arg "Reed_solomon: shard index out of range";
      if seen.(idx) then invalid_arg "Reed_solomon: duplicate shard index";
      seen.(idx) <- true;
      if !len < 0 then len := Bytes.length s
      else if Bytes.length s <> !len then invalid_arg "Reed_solomon: shard length mismatch")
    shards;
  if List.length shards < c.k then invalid_arg "Reed_solomon: need at least k shards";
  !len

(* Inverse of the generator rows of the first k received shards, plus
   those shards in matching order. Any further map is a product with
   this inverse. *)
let select_k c shards =
  let chosen = List.filteri (fun i _ -> i < c.k) shards in
  let sub = Matrix.select_rows c.gen (List.map fst chosen) in
  match Matrix.invert sub with
  | None -> assert false (* Cauchy construction: every k-subset is invertible *)
  | Some inv -> (inv, Array.of_list (List.map snd chosen))

let gf_tables r = fun i j -> Gf256.mul_table (Matrix.get r i j)

let decode ?kernel ?length c shards =
  let kernel = resolve_kernel kernel in
  let len = check_shards c shards in
  let inv, srcs = select_k c shards in
  (* Assemble straight into the result buffer: row j of the inverse
     lands at offset j * len, so there is no per-shard staging copy and
     nothing to concatenate afterwards. *)
  let full = Bytes.create (c.k * len) in
  let bits = lazy (Bitmatrix.of_matrix inv) in
  let sched = lazy (Schedule.compile (Lazy.force bits)) in
  run_striped ~kernel ~packet:c.packet ~domains:1 ~on_stripe:None ~r:inv
    ~tables:(gf_tables inv) ~bits ~sched ~srcs
    ~dsts:(Array.make c.k full)
    ~dbases:(Array.init c.k (fun j -> j * len))
    ~len;
  match length with
  | None -> full
  | Some l ->
    if l < 0 || l > Bytes.length full then invalid_arg "Reed_solomon.decode: bad length";
    if l = Bytes.length full then full else Bytes.sub full 0 l

(* The 1 x k map rebuilding shard [index] from the chosen k shards:
   gen row of the target times the inverse. The lift of this product
   equals the product of the lifts, so the striped region of the
   rebuilt shard matches what encode produced for it. *)
let recon_map c ~index shards =
  let inv, srcs = select_k c shards in
  (Matrix.mul (Matrix.select_rows c.gen [ index ]) inv, srcs)

let reconstruct_into ~kernel ~domains ~on_stripe c ~index shards =
  let len = check_shards c shards in
  let r, srcs = recon_map c ~index shards in
  let out = Bytes.create len in
  let bits = lazy (Bitmatrix.of_matrix r) in
  let sched = lazy (Schedule.compile (Lazy.force bits)) in
  run_striped ~kernel ~packet:c.packet ~domains ~on_stripe ~r ~tables:(gf_tables r)
    ~bits ~sched ~srcs ~dsts:[| out |] ~dbases:[| 0 |] ~len;
  out

let reconstruct ?kernel ?(share = false) c ~index shards =
  if index < 0 || index >= c.n then invalid_arg "Reed_solomon.reconstruct: index";
  match List.assoc_opt index shards with
  | Some s -> if share then s else Bytes.copy s (* already have it *)
  | None ->
    reconstruct_into ~kernel:(resolve_kernel kernel) ~domains:1 ~on_stripe:None c
      ~index shards

let reconstruct_stripes ?kernel ?(domains = 1) ?on_stripe c ~index shards =
  if index < 0 || index >= c.n then
    invalid_arg "Reed_solomon.reconstruct_stripes: index";
  match List.assoc_opt index shards with
  | Some s -> s (* streaming callers rebuild lost shards; nothing to do *)
  | None ->
    reconstruct_into ~kernel:(resolve_kernel kernel) ~domains ~on_stripe c ~index
      shards

let repair_traffic_factor c = float_of_int c.k

let storage_overhead c = float_of_int c.n /. float_of_int c.k
