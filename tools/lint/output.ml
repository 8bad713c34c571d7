(* Machine-readable rendering of findings (JSON, SARIF 2.1.0) and the
   baseline diff: CI fails on findings *new* relative to the committed
   baseline, so a rule can be introduced before the last legacy site is
   fixed without a flag day, and on baseline entries that no finding
   matches any more, so a fixed site cannot leave an excuse behind. *)

type format = Text | Json | Sarif

let format_of_string = function
  | "text" -> Some Text
  | "json" -> Some Json
  | "sarif" -> Some Sarif
  | _ -> None

(* ---- JSON document ---- *)

let finding_to_json (f : Rules.finding) =
  Json.Obj
    [ ("rule", Json.String f.Rules.rule);
      ("file", Json.String f.Rules.file);
      ("line", Json.Int f.Rules.line);
      ("col", Json.Int f.Rules.col);
      ("message", Json.String f.Rules.message);
      ("suppressible", Json.Bool f.Rules.suppressible)
    ]

let finding_of_json j =
  match
    ( Option.bind (Json.member "rule" j) Json.string_value,
      Option.bind (Json.member "file" j) Json.string_value,
      Option.bind (Json.member "line" j) Json.int_value,
      Option.bind (Json.member "col" j) Json.int_value,
      Option.bind (Json.member "message" j) Json.string_value,
      Option.bind (Json.member "suppressible" j) Json.bool_value )
  with
  | Some rule, Some file, Some line, Some col, Some message, Some suppressible ->
    Some { Rules.rule; file; line; col; message; suppressible }
  | _ -> None

let to_json ~files findings =
  Json.Obj
    [ ("version", Json.Int 1);
      ("files", Json.Int files);
      ("findings", Json.List (List.map finding_to_json findings))
    ]

let of_json j =
  match Option.bind (Json.member "findings" j) Json.to_list with
  | None -> Error "missing 'findings' array"
  | Some items ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match finding_of_json item with
        | Some f -> go (f :: acc) rest
        | None -> Error "malformed finding entry")
    in
    go [] items

(* ---- SARIF 2.1.0 ---- *)

let to_sarif findings =
  let rules_meta =
    List.map
      (fun (name, desc) ->
        Json.Obj
          [ ("id", Json.String name);
            ("shortDescription", Json.Obj [ ("text", Json.String desc) ])
          ])
      Rules.rules
  in
  let results =
    List.map
      (fun (f : Rules.finding) ->
        Json.Obj
          [ ("ruleId", Json.String f.Rules.rule);
            ("level", Json.String "error");
            ("message", Json.Obj [ ("text", Json.String f.Rules.message) ]);
            ( "locations",
              Json.List
                [ Json.Obj
                    [ ( "physicalLocation",
                        Json.Obj
                          [ ( "artifactLocation",
                              Json.Obj [ ("uri", Json.String f.Rules.file) ] );
                            ( "region",
                              Json.Obj
                                [ ("startLine", Json.Int (max 1 f.Rules.line));
                                  (* SARIF columns are 1-based *)
                                  ("startColumn", Json.Int (f.Rules.col + 1))
                                ] )
                          ] )
                    ]
                ] )
          ])
      findings
  in
  Json.Obj
    [ ("$schema", Json.String "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.String "2.1.0");
      ( "runs",
        Json.List
          [ Json.Obj
              [ ( "tool",
                  Json.Obj
                    [ ( "driver",
                        Json.Obj
                          [ ("name", Json.String "s3lint");
                            ("rules", Json.List rules_meta)
                          ] )
                    ] );
                ("results", Json.List results)
              ]
          ] )
    ]

(* ---- baseline ---- *)

(* Baseline matching deliberately ignores line/column: moving code must
   not churn the baseline. Only *new* findings (same rule+file+message
   appearing more often than the baseline recorded) and *stale* entries
   (recorded more often than it now appears) should fail CI. *)
let baseline_key (f : Rules.finding) = (f.Rules.rule, f.Rules.file, f.Rules.message)

let load_baseline path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | source -> (
    match Json.of_string source with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> (
      match of_json j with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok findings -> Ok findings))

let diff_against_baseline ~baseline findings =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let k = baseline_key f in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    baseline;
  let fresh, matched =
    List.partition
      (fun f ->
        let k = baseline_key f in
        match Hashtbl.find_opt counts k with
        | Some n when n > 0 ->
          Hashtbl.replace counts k (n - 1);
          false
        | _ -> true)
      findings
  in
  (* What is left in [counts] matched nothing: that many entries of
     each key are stale, reported in baseline order. *)
  let stale =
    List.rev
      (List.fold_left
         (fun acc f ->
           let k = baseline_key f in
           match Hashtbl.find_opt counts k with
           | Some n when n > 0 ->
             Hashtbl.replace counts k (n - 1);
             f :: acc
           | _ -> acc)
         [] baseline)
  in
  (fresh, List.length matched, stale)

(* ---- rendering ---- *)

let render ~format ~files ~baselined ~stale findings =
  let print_stale ppf =
    List.iter
      (fun f -> Format.fprintf ppf "s3lint: stale baseline entry: %a@." Rules.pp_finding f)
      stale
  in
  match format with
  | Text ->
    List.iter (fun f -> Format.printf "%a@." Rules.pp_finding f) findings;
    print_stale Format.std_formatter;
    (match (findings, stale) with
    | [], [] ->
      if baselined > 0 then
        Printf.printf "s3lint: %d files clean (%d baselined finding(s) suppressed)\n"
          files baselined
      else Printf.printf "s3lint: %d files clean\n" files
    | fs, _ ->
      Printf.printf "s3lint: %d new finding(s)%s in %d files%s\n" (List.length fs)
        (match List.length stale with
        | 0 -> ""
        | 1 -> ", 1 stale baseline entry"
        | n -> Printf.sprintf ", %d stale baseline entries" n)
        files
        (if baselined > 0 then Printf.sprintf " (%d baselined)" baselined else ""))
  (* Beside a machine-readable document, stale entries go to stderr so
     that stdout stays one document. *)
  | Json ->
    print_endline (Json.to_string (to_json ~files findings));
    print_stale Format.err_formatter
  | Sarif ->
    print_endline (Json.to_string (to_sarif findings));
    print_stale Format.err_formatter
