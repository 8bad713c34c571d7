(* s3lint driver.

   Syntactic stage: walk the given roots (default: lib bin bench test),
   lint every .ml/.mli from the Parsetree, enforce mli-required.
   Typed stage: for each --cmt PATH (a .cmt file or a directory dune
   built artifacts into), run the determinism/domain-safety passes over
   the Typedtree, and the unused-export pass over all of them at once.

   Findings are merged, optionally diffed against a committed baseline
   (--baseline: only *new* findings and *stale* baseline entries fail),
   and rendered as text, JSON or SARIF. Exit 0 clean, 1 findings or
   stale entries, 2 usage/IO error. *)

open S3lint

let usage =
  "usage: s3lint [options] [dir-or-file ...]\n\
   \  --cmt PATH            also run typed passes over .cmt/.cmti files in\n\
   \                        PATH (repeatable; directories are walked)\n\
   \  --format text|json|sarif   output format (default text)\n\
   \  --baseline FILE       report only findings not in FILE, and fail on\n\
   \                        entries of FILE that no finding matches\n\
   \  --write-baseline FILE write all findings to FILE as JSON and exit 0\n\
   \  --source-root DIR     resolve cmt-recorded source paths under DIR\n\
   \  --list-rules          list rules and exit"

let rec walk path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if String.length entry > 0 && (entry.[0] = '.' || entry.[0] = '_') then acc
        else walk (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
    path :: acc
  else acc

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let () =
  let roots = ref [] in
  let cmt_roots = ref [] in
  let format = ref Output.Text in
  let baseline = ref None in
  let write_baseline = ref None in
  let source_root = ref "." in
  let rec parse = function
    | [] -> ()
    | ("--help" | "-help") :: _ ->
      print_endline usage;
      exit 0
    | "--list-rules" :: _ ->
      List.iter (fun (n, d) -> Printf.printf "%-16s %s\n" n d) Rules.rules;
      exit 0
    | "--cmt" :: path :: rest ->
      cmt_roots := path :: !cmt_roots;
      parse rest
    | "--format" :: fmt :: rest -> (
      match Output.format_of_string fmt with
      | Some f ->
        format := f;
        parse rest
      | None -> die "s3lint: unknown format %S (expected text|json|sarif)" fmt)
    | "--baseline" :: path :: rest ->
      baseline := Some path;
      parse rest
    | "--write-baseline" :: path :: rest ->
      write_baseline := Some path;
      parse rest
    | "--source-root" :: dir :: rest ->
      source_root := dir;
      parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' && arg.[1] = '-' ->
      die "s3lint: unknown or incomplete option %s\n%s" arg usage
    | arg :: rest ->
      roots := arg :: !roots;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots =
    match List.rev !roots with [] -> [ "lib"; "bin"; "bench"; "test" ] | l -> l
  in
  List.iter
    (fun r -> if not (Sys.file_exists r) then die "s3lint: no such file or directory: %s" r)
    roots;
  List.iter
    (fun r -> if not (Sys.file_exists r) then die "s3lint: no such cmt path: %s" r)
    !cmt_roots;
  let files = List.rev (List.fold_left (fun acc r -> walk r acc) [] roots) in
  let syntactic =
    List.concat_map Rules.lint_file files
    @ Rules.missing_mlis ~exists:Sys.file_exists files
  in
  let cmts =
    List.concat_map Typed_rules.cmt_files_under (List.rev !cmt_roots)
    |> List.sort_uniq String.compare
  in
  let typed =
    match cmts with
    | [] -> []
    | _ ->
      Typed_rules.init ~dirs:(List.sort_uniq String.compare (List.map Filename.dirname cmts));
      List.concat_map (Typed_rules.lint_cmt ~source_root:!source_root) cmts
      @ Typed_rules.unused_exports ~source_root:!source_root cmts
  in
  let findings = Rules.sort_findings (syntactic @ typed) in
  let nfiles = List.length files + List.length cmts in
  (match !write_baseline with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Json.to_string (Output.to_json ~files:nfiles findings));
    output_string oc "\n";
    close_out oc;
    Printf.printf "s3lint: wrote baseline with %d finding(s) to %s\n"
      (List.length findings) path;
    exit 0);
  let fresh, baselined, stale =
    match !baseline with
    | None -> (findings, 0, [])
    | Some path -> (
      match Output.load_baseline path with
      | Error e -> die "s3lint: cannot read baseline: %s" e
      | Ok base -> Output.diff_against_baseline ~baseline:base findings)
  in
  Output.render ~format:!format ~files:nfiles ~baselined ~stale fresh;
  exit (if fresh = [] && stale = [] then 0 else 1)
