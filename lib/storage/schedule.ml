(* Op encoding: a flat int array, stride 3.

     ops.(3i)     kind: 0 = copy, 1 = xor, 2 = zero
     ops.(3i + 1) source bit-row: < inputs*8 reads an input shard
                  packet; >= inputs*8 reads output row (src - inputs*8),
                  which the compiler guarantees was fully computed by an
                  earlier op
     ops.(3i + 2) destination output bit-row

   Zero ops carry a source of 0 that is never read. Every output row
   starts with a copy or zero op, so [apply] never reads uninitialized
   destination bytes. *)

type t = {
  inputs : int;
  outputs : int;
  ops : int array;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Rows as packed bitsets, 62 bits per word, for cheap Hamming
   distances during compilation. *)
let row_bits bm r =
  let cols = Bitmatrix.cols bm in
  let words = ((cols + 61) / 62) in
  let w = Array.make (max words 1) 0 in
  for c = 0 to cols - 1 do
    if Bitmatrix.get bm r c then
      w.(c / 62) <- w.(c / 62) lor (1 lsl (c mod 62))
  done;
  w

let popcount_word v0 =
  let c = ref 0 in
  let v = ref v0 in
  while !v <> 0 do
    v := !v land (!v - 1);
    incr c
  done;
  !c

let popcount w = Array.fold_left (fun acc v -> acc + popcount_word v) 0 w

let hamming a b =
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc + popcount_word (a.(i) lxor b.(i))
  done;
  !acc

let compile bm =
  let rows = Bitmatrix.rows bm and cols = Bitmatrix.cols bm in
  if rows mod 8 <> 0 || cols mod 8 <> 0 then
    invalid_arg "Schedule.compile: bit dimensions must be multiples of 8";
  let inputs = cols / 8 and outputs = rows / 8 in
  let in8 = cols in
  let bits = Array.init rows (row_bits bm) in
  let ops = ref [] in
  let emit kind src dst = ops := (kind, src, dst) :: !ops in
  (* Emit ops building [target] from scratch out of the input columns
     in [row], optionally seeded by copying a previous output row. *)
  let emit_from_columns ~seed row target =
    let first = ref true in
    (match seed with
    | Some u ->
      emit 0 (in8 + u) target;
      first := false
    | None -> ());
    Array.iteri
      (fun w v ->
        let v = ref v in
        while !v <> 0 do
          let bit = !v land (- !v) in
          let c = (w * 62) + popcount_word (bit - 1) in
          v := !v lxor bit;
          if !first then begin
            emit 0 c target;
            first := false
          end
          else emit 1 c target
        done)
      row;
    if !first then emit 2 0 target
  in
  for target = 0 to rows - 1 do
    let row = bits.(target) in
    let scratch = popcount row in
    let best = ref None in
    for u = 0 to target - 1 do
      let cost = 1 + hamming row bits.(u) in
      match !best with
      | Some (_, c) when c <= cost -> ()
      | _ -> if cost < scratch then best := Some (u, cost)
    done;
    match !best with
    | None -> emit_from_columns ~seed:None row target
    | Some (u, _) ->
      (* Copying row u then XORing the differing columns: the copy op
         is the seed, each remaining difference is one xor. *)
      let diff = Array.mapi (fun i v -> v lxor bits.(u).(i)) row in
      emit_from_columns ~seed:(Some u) diff target
  done;
  let triples = Array.of_list (List.rev !ops) in
  let flat = Array.make (3 * Array.length triples) 0 in
  Array.iteri
    (fun i (kind, src, dst) ->
      flat.(3 * i) <- kind;
      flat.((3 * i) + 1) <- src;
      flat.((3 * i) + 2) <- dst)
    triples;
  { inputs; outputs; ops = flat }

(* ------------------------------------------------------------------ *)
(* Word-wide execution                                                 *)
(* ------------------------------------------------------------------ *)

(* Unchecked 64-bit loads/stores; bounds for every packet this program
   can touch are established once per [apply] call below, before the
   op loop runs. *)
(* lint: allow unsafe-indexing — all (buffer, offset) pairs the op loop
   dereferences are validated against Bytes.length by [check_regions]
   before the first op executes; offsets are multiples of 8 within the
   checked region *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* lint: allow unsafe-indexing — same region proof as [get64u]; the op
   loop never writes outside [doffs.(i) .. doffs.(i) + 8*packet) which
   [check_regions] bounds-checked against the destination buffer *)
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let xor_words ~src ~soff ~dst ~doff ~words =
  (* Four-way unrolled RMW XOR; [words] is a multiple of 4 when packet
     is a multiple of 32, otherwise the tail loop below finishes. *)
  let quads = words land lnot 3 in
  let w = ref 0 in
  while !w < quads do
    let s = soff + (!w lsl 3) and d = doff + (!w lsl 3) in
    set64u dst d (Int64.logxor (get64u dst d) (get64u src s));
    set64u dst (d + 8) (Int64.logxor (get64u dst (d + 8)) (get64u src (s + 8)));
    set64u dst (d + 16) (Int64.logxor (get64u dst (d + 16)) (get64u src (s + 16)));
    set64u dst (d + 24) (Int64.logxor (get64u dst (d + 24)) (get64u src (s + 24)));
    w := !w + 4
  done;
  for w = quads to words - 1 do
    let s = soff + (w lsl 3) and d = doff + (w lsl 3) in
    set64u dst d (Int64.logxor (get64u dst d) (get64u src s))
  done

let check_regions t ~srcs ~soffs ~dsts ~doffs ~packet =
  if packet <= 0 || packet land 7 <> 0 then
    invalid_arg "Schedule.apply: packet must be a positive multiple of 8";
  if Array.length srcs <> t.inputs || Array.length soffs <> t.inputs then
    invalid_arg "Schedule.apply: source shard count mismatch";
  if Array.length dsts <> t.outputs || Array.length doffs <> t.outputs then
    invalid_arg "Schedule.apply: destination shard count mismatch";
  let region = 8 * packet in
  for j = 0 to t.inputs - 1 do
    if soffs.(j) < 0 || soffs.(j) + region > Bytes.length srcs.(j) then
      invalid_arg "Schedule.apply: source region out of bounds"
  done;
  for i = 0 to t.outputs - 1 do
    if doffs.(i) < 0 || doffs.(i) + region > Bytes.length dsts.(i) then
      invalid_arg "Schedule.apply: destination region out of bounds"
  done

let apply t ~srcs ~soffs ~dsts ~doffs ~packet =
  check_regions t ~srcs ~soffs ~dsts ~doffs ~packet;
  let in8 = t.inputs * 8 in
  let ops = t.ops in
  let nops = Array.length ops in
  let words = packet lsr 3 in
  let i = ref 0 in
  while !i < nops do
    let kind = ops.(!i) and s = ops.(!i + 1) and d = ops.(!i + 2) in
    let dst = dsts.(d lsr 3) in
    let doff = doffs.(d lsr 3) + ((d land 7) * packet) in
    (match kind with
    | 0 | 1 ->
      let src, soff =
        if s < in8 then (srcs.(s lsr 3), soffs.(s lsr 3) + ((s land 7) * packet))
        else
          let o = s - in8 in
          (dsts.(o lsr 3), doffs.(o lsr 3) + ((o land 7) * packet))
      in
      if kind = 0 then Bytes.blit src soff dst doff packet
      else xor_words ~src ~soff ~dst ~doff ~words
    | _ -> Bytes.fill dst doff packet '\000');
    i := !i + 3
  done
