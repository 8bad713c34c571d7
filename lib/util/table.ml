type align = Left | Right

let render ?align ~header rows =
  let ncols = List.length header in
  List.iter
    (fun row ->
      if List.length row <> ncols then
        invalid_arg "Table.render: row arity mismatch")
    rows;
  let aligns =
    match align with
    | None -> Array.make ncols Right
    | Some a ->
      if List.length a <> ncols then
        invalid_arg "Table.render: align arity mismatch"
      else Array.of_list a
  in
  let widths = Array.make ncols 0 in
  let note row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  note header;
  List.iter note rows;
  let pad i cell =
    let w = widths.(i) in
    let n = w - String.length cell in
    match aligns.(i) with
    | Left -> cell ^ String.make n ' '
    | Right -> String.make n ' ' ^ cell
  in
  let line row = String.concat "  " (List.mapi pad row) in
  let rule = String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) in
  String.concat "\n" (line header :: rule :: List.map line rows)

let fmt_float ?(decimals = 2) x =
  if Float.abs x >= 1e15 then Printf.sprintf "%.*e" decimals x
  else Printf.sprintf "%.*f" decimals x

(* Shortest decimal form that parses back to the same float: %g keeps
   only 6 significant digits and loses precision on round-trip, so specs
   printed from a randomly drawn plan would no longer replay the same
   run. %.15g covers almost every value humans write; the %.17g fallback
   is exact for every float. *)
let fmt_exact f =
  let s = Printf.sprintf "%.15g" f in
  if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let fmt_pct x = Printf.sprintf "%.1f%%" (100. *. x)
