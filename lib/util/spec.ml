type 'c key = {
  name : string;
  aliases : string list;
  set : 'c -> string -> ('c, string) result;
}

let typed read kind ?(aliases = []) name set =
  { name;
    aliases;
    set =
      (fun c value ->
        match read value with
        | Some x -> Ok (set c x)
        | None -> Error (Printf.sprintf "%s: %S is not %s" name value kind))
  }

let float ?aliases name set = typed float_of_string_opt "a number" ?aliases name set
let int ?aliases name set = typed int_of_string_opt "an integer" ?aliases name set

let bool name set =
  typed (fun v -> bool_of_string_opt (String.lowercase_ascii v)) "a boolean" name set

(* "a, b or c" *)
let rec one_of = function
  | [] -> ""
  | [ x ] -> x
  | [ x; y ] -> x ^ " or " ^ y
  | x :: rest -> x ^ ", " ^ one_of rest

let parse ~what ~default ~finish keys s =
  let err fmt = Printf.ksprintf (fun m -> Error (what ^ " " ^ m)) fmt in
  let names = List.map (fun k -> k.name) keys in
  let rec go c = function
    | [] -> ( match finish c with c -> Ok c | exception Invalid_argument m -> Error m)
    | "default" :: rest -> go default rest
    | item :: rest -> (
      match String.index_opt item '=' with
      | None -> err "%S: expected KEY=VALUE with KEY one of %s" item (String.concat ", " names)
      | Some eq -> (
        let key = String.lowercase_ascii (String.trim (String.sub item 0 eq)) in
        let value = String.trim (String.sub item (eq + 1) (String.length item - eq - 1)) in
        match List.find_opt (fun k -> k.name = key || List.mem key k.aliases) keys with
        | None -> err "%S: unknown key %S (expected %s)" item key (one_of names)
        | Some k -> ( match k.set c value with Ok c -> go c rest | Error m -> err "%s" m)))
  in
  go default (String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) ""))
