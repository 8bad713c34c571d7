open Parsetree

type kind = Lib | Bin | Bench | Test | Other

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  suppressible : bool;
}

let rules =
  [ ( "float-eq",
      "=/<>/==/!=/compare on float-evident operands; use an epsilon helper \
       (LP bound and congestion math must not rely on exact float equality)" );
    ( "unsafe-indexing",
      "Array/Bytes/String unsafe accessors, and external declarations bound to \
       unchecked %caml_*u load/store primitives; allowed only in the hot-path \
       module allowlist and only with a justification annotation" );
    ( "catch-all-exn",
      "'with _ ->' or a handler that binds the exception and returns (); \
       swallows Out_of_memory, Stack_overflow and every programming error" );
    ( "no-print-in-lib",
      "direct printf/print_*/prerr_* in lib/; route output through \
       Sim.Report, Util.Table or a Logs source" );
    ( "partial-stdlib",
      "List.hd/tl/nth, Option.get, Hashtbl.find outside tests; use the \
       _opt variant or pattern-match, or justify the invariant" );
    ( "mli-required",
      "every lib/**/*.ml must have a matching .mli so interfaces stay \
       deliberate" );
    ( "hashtbl-order",
      "[typed] Hashtbl.fold/iter whose body accumulates into an order-sensitive \
       structure (list cons, float +./*., string ^, list @, Buffer.add) without \
       piping the result through a sort; hash-bucket order is not a stable order" );
    ( "poly-compare",
      "[typed] polymorphic compare/=/<>/Hashtbl.hash instantiated at a \
       float-containing or abstract type; use Float.compare or a typed comparator \
       (int instantiations pass)" );
    ( "domain-purity",
      "[typed] closure passed to Sweep.map/map_list/map_ranges captures mutable \
       state (ref, Hashtbl.t, Bytes.t, Buffer.t, Queue.t, Stack.t, Atomic.t, or a \
       mutable record) from an enclosing scope; sweep jobs must be self-contained" );
    ( "nondet-source",
      "[typed] Random.* global-state calls (seed an explicit Random.State.t or \
       Util.Prng instead), and wall-clock reads (Sys.time, Unix.gettimeofday, \
       Unix.time) in lib/ — timing belongs in bench/" );
    ( "unused-export",
      "[typed] a val in lib/**/*.mli that nothing outside its own module and \
       test/ references, or an optional argument of one that no such caller \
       passes or that the body binds as ?x:_" );
    ("suppression", "a lint:allow annotation that is malformed or lacks a justification");
    ("parse-error", "the file could not be read or parsed");
    ("cmt-error", "[typed] a .cmt artifact could not be read or carries no implementation")
  ]

let rule_names = List.map fst rules

let hot_path_allowlist =
  [ "reed_solomon"; "gf256"; "schedule"; "simplex"; "engine" ]

let kind_of_path path =
  let path =
    if String.length path > 1 && path.[0] = '.' && path.[1] = '/' then
      String.sub path 2 (String.length path - 2)
    else path
  in
  let first =
    match String.index_opt path '/' with
    | Some i -> String.sub path 0 i
    | None -> path
  in
  match first with
  | "lib" -> Lib
  | "bin" -> Bin
  | "bench" -> Bench
  | "test" | "tests" -> Test
  | _ -> Other

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)
(* ------------------------------------------------------------------ *)

type suppression = {
  s_rule : string;
  s_first : int;  (* first line the allowance covers *)
  s_last : int;  (* last line the allowance covers *)
  s_line : int;  (* where the annotation itself sits, for diagnostics *)
  s_justified : bool;
}

(* A justification has to say something: at least three letters once
   the separators are gone. "—" and "because" both pass; "." does not. *)
let has_substance s =
  let letters = ref 0 in
  String.iter
    (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') then incr letters)
    s;
  !letters >= 3

let line_of_offset source offset =
  let n = ref 1 in
  for i = 0 to min offset (String.length source) - 1 do
    if source.[i] = '\n' then incr n
  done;
  !n

(* Enumerate real comments: a tiny lexer that skips string literals
   ("..." with escapes, {id|...|id}) and char literals, and tracks
   comment nesting — so a "(* lint: allow ... *)" spelled inside a
   string (the lint test fixtures do exactly that) is not a
   suppression. Returns (start, stop) offsets of each comment body. *)
let comments source =
  let len = String.length source in
  let acc = ref [] in
  let i = ref 0 in
  let is_lower c = (c >= 'a' && c <= 'z') || c = '_' in
  let skip_string from =
    (* from points at the opening quote *)
    let j = ref (from + 1) in
    let stop = ref false in
    while (not !stop) && !j < len do
      if source.[!j] = '\\' then j := !j + 2
      else if source.[!j] = '"' then begin
        stop := true;
        incr j
      end
      else incr j
    done;
    !j
  in
  let skip_quoted_string from =
    (* from points at '{'; matches {id| ... |id} *)
    let j = ref (from + 1) in
    while !j < len && is_lower source.[!j] do incr j done;
    if !j >= len || source.[!j] <> '|' then from + 1
    else begin
      let id = String.sub source (from + 1) (!j - from - 1) in
      let closing = "|" ^ id ^ "}" in
      match Str.search_forward (Str.regexp_string closing) source (!j + 1) with
      | k -> k + String.length closing
      | exception Not_found -> len
    end
  in
  while !i < len do
    let c = source.[!i] in
    if c = '(' && !i + 1 < len && source.[!i + 1] = '*' then begin
      let start = !i in
      let depth = ref 1 in
      let j = ref (!i + 2) in
      while !depth > 0 && !j + 1 < len do
        if source.[!j] = '(' && source.[!j + 1] = '*' then begin
          incr depth;
          j := !j + 2
        end
        else if source.[!j] = '*' && source.[!j + 1] = ')' then begin
          decr depth;
          j := !j + 2
        end
        else incr j
      done;
      acc := (start, min !j len) :: !acc;
      i := !j
    end
    else if c = '"' then i := skip_string !i
    else if c = '{' then i := skip_quoted_string !i
    else if c = '\'' then begin
      (* char literal or type variable: 'x' / '\n' / '\xFF' vs 'a *)
      if !i + 2 < len && source.[!i + 1] <> '\\' && source.[!i + 2] = '\'' then
        i := !i + 3
      else if !i + 1 < len && source.[!i + 1] = '\\' then begin
        let j = ref (!i + 2) in
        while !j < len && source.[!j] <> '\'' && !j - !i < 6 do incr j done;
        i := !j + 1
      end
      else incr i
    end
    else incr i
  done;
  List.rev !acc

(* [(* lint: allow <rule> — <justification> *)] comments. The comment
   covers its own last line and the line below, so it can sit at the
   end of the offending line or directly above it. *)
let comment_suppressions source =
  let re = Str.regexp "(\\*[ \t]*lint:[ \t]*allow[ \t]+\\([A-Za-z0-9_-]+\\)" in
  List.filter_map
    (fun (start, stop) ->
      match Str.search_forward re source start with
      | at when at = start && Str.match_end () <= stop ->
        let rule = Str.matched_group 1 source in
        let justification = String.sub source (Str.match_end ()) (stop - Str.match_end ()) in
        let line = line_of_offset source stop in
        Some
          { s_rule = rule;
            s_first = line;
            s_last = line + 1;
            s_line = line_of_offset source start;
            s_justified = has_substance justification
          }
      | _ | (exception Not_found) -> None)
    (comments source)

(* [@lint.allow "rule" "justification"] payloads: collect every string
   constant (and bare identifier, with _ read as -) in the payload;
   the first is the rule, the rest are the justification. *)
let decode_allow_payload payload =
  let words = ref [] in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_constant (Pconst_string (s, _, _)) -> words := s :: !words
          | Pexp_ident { txt = Longident.Lident id; _ } ->
            words := String.map (fun c -> if c = '_' then '-' else c) id :: !words
          | _ -> ());
          Ast_iterator.default_iterator.expr self e)
    }
  in
  (match payload with PStr str -> it.structure it str | _ -> ());
  match List.rev !words with
  | [] -> None
  | rule :: rest -> Some (rule, String.concat " " rest)

let attr_suppressions attrs (loc : Location.t) =
  List.filter_map
    (fun a ->
      if a.attr_name.txt <> "lint.allow" then None
      else
        match decode_allow_payload a.attr_payload with
        | None ->
          Some
            { s_rule = "";
              s_first = 0;
              s_last = -1;
              s_line = a.attr_loc.loc_start.pos_lnum;
              s_justified = false
            }
        | Some (rule, justification) ->
          Some
            { s_rule = rule;
              s_first = loc.loc_start.pos_lnum;
              s_last = loc.loc_end.pos_lnum;
              s_line = a.attr_loc.loc_start.pos_lnum;
              s_justified = has_substance justification
            })
    attrs

(* ------------------------------------------------------------------ *)
(* Rule checks over the Parsetree                                      *)
(* ------------------------------------------------------------------ *)

let flatten lid = Longident.flatten lid

let is_float_type (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt = Lident "float"; _ }, [])
  | Ptyp_constr ({ txt = Ldot (Lident ("Stdlib" | "Float"), ("float" | "t")); _ }, []) ->
    true
  | _ -> false

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-."; "~+." ]

(* Syntactic float evidence. [infinity]/[neg_infinity] are deliberately
   absent: comparing against an exact IEEE infinity is well-defined and
   idiomatic (Rtf.lrb returns it as a sentinel), whereas [nan] equality
   is always false and always a bug. *)
let rec floaty (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (_, t) -> is_float_type t
  | Pexp_ident { txt = Lident ("nan" | "epsilon_float" | "max_float" | "min_float"); _ } ->
    true
  | Pexp_ident { txt = Ldot (Lident "Float", _); _ } -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
    match flatten txt with
    | [ op ] | [ "Stdlib"; op ] when List.mem op float_ops -> true
    | [ "float_of_int" ] | [ "Stdlib"; "float_of_int" ] -> true
    | [ "Float"; f ] -> f <> "to_int" && f <> "compare" && f <> "equal"
    | [ ("min" | "max") ] | [ "Stdlib"; ("min" | "max") ] ->
      List.exists (fun (_, a) -> floaty a) args
    | _ -> false)
  | Pexp_open (_, e) -> floaty e
  | _ -> false

let unsafe_accessors =
  [ [ "Array"; "unsafe_get" ];
    [ "Array"; "unsafe_set" ];
    [ "Bytes"; "unsafe_get" ];
    [ "Bytes"; "unsafe_set" ];
    [ "String"; "unsafe_get" ]
  ]

let partial_accessors =
  [ ([ "List"; "hd" ], "match on the list or justify why it is non-empty");
    ([ "List"; "tl" ], "match on the list or justify why it is non-empty");
    ([ "List"; "nth" ], "use List.nth_opt, an array, or justify the bound");
    ([ "Option"; "get" ], "match on the option or use Option.value");
    ([ "Hashtbl"; "find" ], "use Hashtbl.find_opt or justify key presence")
  ]

(* Compiler intrinsics that skip bounds checks entirely — the word-wide
   escape hatch the unsafe_get/set rule would otherwise miss. The
   trailing 'u' is the unchecked marker ("%caml_bytes_get64u" vs the
   checked "%caml_bytes_get64"). *)
let unchecked_primitive name =
  let prefixes =
    [ "%caml_bytes_get"; "%caml_bytes_set"; "%caml_string_get"; "%caml_string_set";
      "%caml_bigstring_get"; "%caml_bigstring_set"
    ]
  in
  String.length name > 0
  && name.[String.length name - 1] = 'u'
  && List.exists (fun p -> String.starts_with ~prefix:p name) prefixes

let print_functions =
  [ [ "print_endline" ]; [ "print_string" ]; [ "print_newline" ]; [ "print_char" ];
    [ "print_int" ]; [ "print_float" ]; [ "prerr_endline" ]; [ "prerr_string" ];
    [ "prerr_newline" ]; [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ];
    [ "Format"; "printf" ]; [ "Format"; "eprintf" ]
  ]

(* lib/sim/report.ml and lib/util/table.ml are the sanctioned output
   layer itself; the rule would be circular there. *)
let print_exempt_basenames = [ "report.ml"; "table.ml" ]

let is_unit_expr (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "()"; _ }, None) -> true
  | _ -> false

let module_basename file =
  Filename.remove_extension (Filename.basename file)

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let collect ~kind ~file structure =
  let findings = ref [] in
  let suppressions = ref [] in
  let report ?(suppressible = true) rule (loc : Location.t) message =
    findings :=
      { rule;
        file;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        message;
        suppressible
      }
      :: !findings
  in
  let in_hot_allowlist = List.mem (module_basename file) hot_path_allowlist in
  let check_ident txt (loc : Location.t) =
    let parts = strip_stdlib (flatten txt) in
    let name = String.concat "." parts in
    if List.mem parts unsafe_accessors then begin
      if in_hot_allowlist then
        report "unsafe-indexing" loc
          (Printf.sprintf
             "%s in hot-path module '%s' still needs a justification: annotate with \
              (* lint: allow unsafe-indexing — <bounds argument> *)"
             name (module_basename file))
      else
        report ~suppressible:false "unsafe-indexing" loc
          (Printf.sprintf
             "%s outside the hot-path allowlist (%s); use the checked accessor or \
              move the loop into an allowlisted module"
             name
             (String.concat ", " hot_path_allowlist))
    end;
    (match List.assoc_opt parts partial_accessors with
    | Some hint when kind <> Test ->
      report "partial-stdlib" loc (Printf.sprintf "%s can raise; %s" name hint)
    | _ -> ());
    if kind = Lib
       && List.mem parts print_functions
       && not (List.mem (Filename.basename file) print_exempt_basenames)
    then
      report "no-print-in-lib" loc
        (Printf.sprintf
           "%s writes straight to the process streams from library code; route \
            through Sim.Report / Util.Table or a Logs source"
           name)
  in
  let check_comparison fn args (loc : Location.t) =
    match (fn.pexp_desc, args) with
    | Pexp_ident { txt; _ }, [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] -> (
      match strip_stdlib (flatten txt) with
      | [ (("=" | "<>" | "==" | "!=") as op) ] when floaty a || floaty b ->
        report "float-eq" loc
          (Printf.sprintf
             "(%s) on float operands is exact bit comparison; use an epsilon \
              helper or justify why exactness is intended"
             op)
      | [ "compare" ] | [ "Float"; "compare" ] | [ "Float"; "equal" ]
        when floaty a || floaty b ->
        report "float-eq" loc
          "polymorphic/Float compare on float operands is exact; use an epsilon \
           helper or justify why exactness is intended"
      | _ -> ())
    | _ -> ()
  in
  let check_handler_cases cases =
    List.iter
      (fun c ->
        let rec catch_all (p : pattern) =
          match p.ppat_desc with
          | Ppat_any -> true
          | Ppat_or (a, b) -> catch_all a || catch_all b
          | Ppat_alias (p, _) -> catch_all p
          | _ -> false
        in
        if c.pc_guard = None && catch_all c.pc_lhs then
          report "catch-all-exn" c.pc_lhs.ppat_loc
            "'with _ ->' swallows every exception (Out_of_memory, Stack_overflow, \
             assertion failures); match the exceptions you mean"
        else
          match c.pc_lhs.ppat_desc with
          | Ppat_var _ when c.pc_guard = None && is_unit_expr c.pc_rhs ->
            report "catch-all-exn" c.pc_lhs.ppat_loc
              "handler binds the exception and returns (); either handle it or \
               let it propagate"
          | _ -> ())
      cases
  in
  let it =
    { Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          suppressions := attr_suppressions e.pexp_attributes e.pexp_loc @ !suppressions;
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> check_ident txt loc
          | Pexp_apply (fn, args) -> check_comparison fn args e.pexp_loc
          | Pexp_try (_, cases) -> check_handler_cases cases
          | Pexp_match (_, cases) ->
            (* [| exception _ ->] arms are handlers too. *)
            check_handler_cases
              (List.filter_map
                 (fun c ->
                   match c.pc_lhs.ppat_desc with
                   | Ppat_exception p -> Some { c with pc_lhs = p }
                   | _ -> None)
                 cases)
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          suppressions := attr_suppressions vb.pvb_attributes vb.pvb_loc @ !suppressions;
          Ast_iterator.default_iterator.value_binding self vb);
      structure_item =
        (fun self si ->
          (match si.pstr_desc with
          | Pstr_primitive vd ->
            suppressions := attr_suppressions vd.pval_attributes si.pstr_loc @ !suppressions;
            List.iter
              (fun prim ->
                if unchecked_primitive prim then
                  if in_hot_allowlist then
                    report "unsafe-indexing" si.pstr_loc
                      (Printf.sprintf
                         "external %s = \"%s\" binds an unchecked accessor primitive; \
                          in hot-path module '%s' it still needs a justification: \
                          annotate with (* lint: allow unsafe-indexing — <bounds \
                          argument> *)"
                         vd.pval_name.txt prim (module_basename file))
                  else
                    report ~suppressible:false "unsafe-indexing" si.pstr_loc
                      (Printf.sprintf
                         "external %s = \"%s\" binds an unchecked accessor primitive \
                          outside the hot-path allowlist (%s); use checked accessors \
                          or move the kernel into an allowlisted module"
                         vd.pval_name.txt prim
                         (String.concat ", " hot_path_allowlist)))
              vd.pval_prim
          | Pstr_attribute a ->
            (* [@@@lint.allow ...]: file-wide scope. *)
            suppressions :=
              List.map
                (fun s -> if s.s_last >= s.s_first then { s with s_first = 1; s_last = max_int } else s)
                (attr_suppressions [ a ] si.pstr_loc)
              @ !suppressions
          | Pstr_eval (_, attrs) ->
            suppressions := attr_suppressions attrs si.pstr_loc @ !suppressions
          | _ -> ());
          Ast_iterator.default_iterator.structure_item self si)
    }
  in
  it.structure it structure;
  (List.rev !findings, !suppressions)

(* ------------------------------------------------------------------ *)
(* Putting it together                                                 *)
(* ------------------------------------------------------------------ *)

let suppression_hygiene ~file suppressions =
  let bad_suppressions =
    List.filter_map
      (fun s ->
        if s.s_justified then None
        else
          Some
            { rule = "suppression";
              file;
              line = s.s_line;
              col = 0;
              message =
                (if s.s_rule = "" then
                   "lint.allow payload must be (\"<rule>\" \"<justification>\")"
                 else if not (List.mem s.s_rule rule_names) then
                   Printf.sprintf "lint: allow names unknown rule '%s'" s.s_rule
                 else
                   Printf.sprintf
                     "lint: allow %s has no justification; say why the site is safe"
                     s.s_rule);
              suppressible = false
            })
      suppressions
  in
  let unknown =
    List.filter_map
      (fun s ->
        if s.s_justified && not (List.mem s.s_rule rule_names) then
          Some
            { rule = "suppression";
              file;
              line = s.s_line;
              col = 0;
              message = Printf.sprintf "lint: allow names unknown rule '%s'" s.s_rule;
              suppressible = false
            }
        else None)
      suppressions
  in
  bad_suppressions @ unknown

let filter_suppressed findings suppressions =
  let suppressed f =
    f.suppressible
    && List.exists
         (fun s ->
           s.s_justified && s.s_rule = f.rule && f.line >= s.s_first && f.line <= s.s_last)
         suppressions
  in
  List.filter (fun f -> not (suppressed f)) findings

let apply_suppressions ~file findings suppressions =
  filter_suppressed findings suppressions @ suppression_hygiene ~file suppressions

let sort_findings fs =
  List.sort
    (fun a b ->
      match compare a.file b.file with
      | 0 -> ( match compare a.line b.line with 0 -> compare a.col b.col | c -> c)
      | c -> c)
    fs

let parse_error ~file message =
  [ { rule = "parse-error"; file; line = 1; col = 0; message; suppressible = false } ]

let lint_source ~kind ~file source =
  match
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf file;
    Parse.implementation lexbuf
  with
  | structure ->
    let findings, attr_sups = collect ~kind ~file structure in
    let sups = comment_suppressions source @ attr_sups in
    sort_findings (apply_suppressions ~file findings sups)
  | exception exn ->
    let message =
      match Location.error_of_exn exn with
      | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
      | _ -> Printexc.to_string exn
    in
    parse_error ~file (String.map (fun c -> if c = '\n' then ' ' else c) message)

(* The typed stage reports findings positioned in the original source,
   so it shares this file's suppression machinery: parse the source for
   attribute allowances (findings from [collect] are discarded) and add
   the comment allowances. A source that no longer parses still honours
   comment allowances — the comment scanner is parse-free. *)
let suppressions_of_source ~file source =
  match
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf file;
    Parse.implementation lexbuf
  with
  | structure ->
    let _, attr_sups = collect ~kind:Other ~file structure in
    comment_suppressions source @ attr_sups
  | exception _ -> comment_suppressions source

let lint_file ?kind file =
  let kind = match kind with Some k -> k | None -> kind_of_path file in
  match
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error e -> parse_error ~file e
  | source ->
    if Filename.check_suffix file ".mli" then (
      (* Interfaces carry no expression rules; parsing them still
         catches syntax rot in files dune may not rebuild. Their
         allowances (the typed unused-export pass honours those on a
         [val]) get the same hygiene check as an implementation's. *)
      match
        let lexbuf = Lexing.from_string source in
        Location.init lexbuf file;
        Parse.interface lexbuf
      with
      | _ -> sort_findings (suppression_hygiene ~file (comment_suppressions source))
      | exception exn ->
        parse_error ~file
          (match Location.error_of_exn exn with
          | Some (`Ok err) ->
            String.map
              (fun c -> if c = '\n' then ' ' else c)
              (Format.asprintf "%a" Location.print_report err)
          | _ -> Printexc.to_string exn))
    else lint_source ~kind ~file source

let missing_mlis ~exists paths =
  List.filter_map
    (fun path ->
      if
        Filename.check_suffix path ".ml"
        && kind_of_path path = Lib
        && not (exists (path ^ "i"))
      then
        Some
          { rule = "mli-required";
            file = path;
            line = 1;
            col = 0;
            message =
              Printf.sprintf "%s has no %si: every lib module keeps an explicit interface"
                (Filename.basename path) (Filename.basename path);
            suppressible = false
          }
      else None)
    paths
