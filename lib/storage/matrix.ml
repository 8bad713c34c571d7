type t = {
  nrows : int;
  ncols : int;
  data : int array;  (* row-major *)
}

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: sizes";
  { nrows = rows; ncols = cols; data = Array.make (rows * cols) 0 }

let rows m = m.nrows
let cols m = m.ncols

let get m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Matrix.get: out of range";
  m.data.((i * m.ncols) + j)

let set m i j v =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Matrix.set: out of range";
  Gf256.check v;
  m.data.((i * m.ncols) + j) <- v

let init ~rows ~cols f =
  let m = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1 else 0)

let copy m = { m with data = Array.copy m.data }

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Matrix.mul: shape mismatch";
  init ~rows:a.nrows ~cols:b.ncols (fun i j ->
      let acc = ref 0 in
      for k = 0 to a.ncols - 1 do
        acc := Gf256.add !acc (Gf256.mul (get a i k) (get b k j))
      done;
      !acc)

let select_rows m idxs =
  let k = List.length idxs in
  if k = 0 then invalid_arg "Matrix.select_rows: empty selection";
  let a = Array.of_list idxs in
  init ~rows:k ~cols:m.ncols (fun i j -> get m a.(i) j)

let invert m =
  if m.nrows <> m.ncols then invalid_arg "Matrix.invert: not square";
  let n = m.nrows in
  let a = copy m in
  let inv = identity n in
  let swap_rows mt r1 r2 =
    if r1 <> r2 then
      for j = 0 to n - 1 do
        let tmp = get mt r1 j in
        set mt r1 j (get mt r2 j);
        set mt r2 j tmp
      done
  in
  let ok = ref true in
  (try
     for col = 0 to n - 1 do
       (* Find a pivot in this column at or below the diagonal. *)
       let pivot = ref (-1) in
       for i = col to n - 1 do
         if !pivot < 0 && get a i col <> 0 then pivot := i
       done;
       if !pivot < 0 then begin
         ok := false;
         raise Exit
       end;
       swap_rows a col !pivot;
       swap_rows inv col !pivot;
       let p = Gf256.inv (get a col col) in
       for j = 0 to n - 1 do
         set a col j (Gf256.mul p (get a col j));
         set inv col j (Gf256.mul p (get inv col j))
       done;
       for i = 0 to n - 1 do
         if i <> col then begin
           let f = get a i col in
           if f <> 0 then
             for j = 0 to n - 1 do
               set a i j (Gf256.add (get a i j) (Gf256.mul f (get a col j)));
               set inv i j (Gf256.add (get inv i j) (Gf256.mul f (get inv col j)))
             done
         end
       done
     done
   with Exit -> ());
  if !ok then Some inv else None
