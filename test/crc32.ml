(* Reflected CRC-32 with polynomial 0xEDB88320 (IEEE), one 256-entry
   table; the standard zlib construction: the register starts at all
   ones and is complemented at the end. The codec tests pin the shard
   layout with it. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let digest b =
  let t = Lazy.force table in
  let c = ref 0xFFFFFFFFl in
  for i = 0 to Bytes.length b - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl) in
    c := Int32.logxor t.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl
