(* s3lint typed stage: passes over the Typedtree, loaded from the
   .cmt artifacts the dune build already produces (-bin-annot is on by
   default), so every check sees inferred types instead of syntactic
   evidence. Four passes guard the repo's headline property — that
   every accumulation the planner performs is order-deterministic, so
   the engine keeps matching its frozen golden corpus and
   parallel/sequential sweeps stay byte-identical:

   - hashtbl-order   : Hashtbl.fold/iter bodies that accumulate into an
                       order-sensitive structure without re-sorting;
   - poly-compare    : polymorphic compare/=/<>/Hashtbl.hash
                       instantiated at float-containing or abstract
                       types, or at an unresolved type variable (int
                       instantiations pass); in lib/, also Stdlib's
                       min/max at a float-containing type;
   - domain-purity   : Sweep job closures capturing mutable state
                       from an enclosing scope;
   - nondet-source   : global-state Random.* anywhere, wall-clock reads
                       in lib/.

   A fifth pass, unused-export, reads the whole program at once (see
   [unused_exports] at the end): every value a lib/ interface exports,
   and every optional argument of one, needs a caller outside test/.

   Version notes: the walk uses Tast_iterator and never matches
   Texp_function directly (its representation changed in 5.2); lambda
   arguments are analysed as whole subtrees, with bound-vs-used ident
   sets standing in for a closure-capture analysis, and [?x:_]
   parameters are found from their wildcard pattern and the source. *)

open Typedtree

let finding rule ~file (loc : Location.t) message =
  { Rules.rule;
    file;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    message;
    suppressible = true
  }

let report findings rule ~file loc message =
  findings := finding rule ~file loc message :: !findings

(* ------------------------------------------------------------------ *)
(* Environment plumbing                                                *)
(* ------------------------------------------------------------------ *)

(* .cmt files store environments as summaries; reconstructing them (for
   Env.find_type on nominal types) needs the cmi files of every library
   on the load path. [init] threads the .objs directories through
   Clflags.include_dirs — the one version-stable knob — before
   Compmisc.init_path rebuilds the load path. Every env-dependent check
   degrades gracefully: on any lookup failure the pass falls back to
   the structural type information already in the node. *)
let init ~dirs =
  Clflags.include_dirs := dirs @ !Clflags.include_dirs;
  Compmisc.init_path ();
  Envaux.reset_cache ()

let real_env env = try Envaux.env_of_only_summary env with _ -> env

(* ------------------------------------------------------------------ *)
(* Path and type helpers                                               *)
(* ------------------------------------------------------------------ *)

(* "Stdlib__Hashtbl.fold" / "Stdlib.Hashtbl.fold" -> ["Hashtbl"; "fold"]:
   split on '.' and the '__' of flattened module names, then drop the
   Stdlib qualifier, so matching is stable across alias resolution. *)
(* Structural decomposition — [Path.name] followed by splitting on '.'
   would mangle operator idents like [+.] into ["+"; ""]. Module names
   are still split on "__" ([Stdlib__Hashtbl]), but an ident component
   is kept verbatim. *)
let path_parts p =
  let split_mod s = Str.split_delim (Str.regexp_string "__") s |> List.filter (( <> ) "") in
  let rec go p =
    match p with
    | Path.Pident id -> [ Ident.name id ]
    | Path.Pdot (prefix, s) -> List.concat_map split_mod (go prefix) @ [ s ]
    | Path.Papply (a, b) -> go a @ go b
    | _ -> split_mod (Path.name p) (* Pextra_ty etc. — type paths, not values *)
  in
  match go p with "Stdlib" :: rest -> rest | parts -> parts

let suffix_is suffix parts =
  let ls = List.length suffix and lp = List.length parts in
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  lp >= ls && drop (lp - ls) parts = suffix

let get_desc = Types.get_desc

(* Does [ty] contain a float (or float array) anywhere reachable —
   through tuples, type parameters, aliases, record fields and variant
   arguments? Depth-bounded so recursive types terminate; env lookups
   are best-effort. *)
let rec contains_float env depth ty =
  depth < 12
  &&
  match get_desc ty with
  | Types.Ttuple ts -> List.exists (contains_float env (depth + 1)) ts
  | Types.Tconstr (p, args, _) ->
    Path.same p Predef.path_float
    || Path.same p Predef.path_floatarray
    || List.exists (contains_float env (depth + 1)) args
    || decl_contains_float env depth p
  | _ -> false

and decl_contains_float env depth p =
  match Env.find_type p env with
  | decl -> (
    match decl.Types.type_manifest with
    | Some t -> contains_float env (depth + 1) t
    | None -> (
      match decl.Types.type_kind with
      | Types.Type_record (lbls, _) ->
        List.exists (fun l -> contains_float env (depth + 1) l.Types.ld_type) lbls
      | Types.Type_variant (cstrs, _) ->
        List.exists
          (fun c ->
            match c.Types.cd_args with
            | Types.Cstr_tuple ts -> List.exists (contains_float env (depth + 1)) ts
            | Types.Cstr_record lbls ->
              List.exists (fun l -> contains_float env (depth + 1) l.Types.ld_type) lbls)
          cstrs
      | _ -> false))
  | exception _ -> false

(* Structural predef types that polymorphic comparison handles without
   surprises (their parameters are checked separately). *)
let comparable_predef =
  [ Predef.path_int; Predef.path_char; Predef.path_string; Predef.path_bytes;
    Predef.path_bool; Predef.path_unit; Predef.path_int32; Predef.path_int64;
    Predef.path_nativeint; Predef.path_list; Predef.path_option; Predef.path_array
  ]

(* Is the head of [ty] an abstract (opaque) nominal type? Looking the
   declaration up can fail for types from units whose cmi is off the
   load path; failure means "not provably abstract", never a finding. *)
let abstract_head env depth ty =
  if depth > 12 then None
  else
    match get_desc ty with
    | Types.Tconstr (p, _, _) when not (List.exists (Path.same p) comparable_predef)
      -> (
      match Env.find_type p env with
      | decl -> (
        match (decl.Types.type_manifest, decl.Types.type_kind) with
        | Some _, _ -> None (* alias; the manifest is checked via contains_float *)
        | None, (Types.Type_record _ | Types.Type_variant _ | Types.Type_open) -> None
        | None, _ -> Some (Path.name p))
      | exception _ -> None)
    | _ -> None

(* An unresolved type variable: the comparison's instance is decided by
   each caller, so at run time it is the generic [caml_compare] on
   whatever arrives, boxed floats included, where neither the float nor
   the abstract check can see it. *)
let is_type_var ty =
  match get_desc ty with
  | Types.Tvar _ | Types.Tunivar _ -> true
  | _ -> false

let rec first_arrow_arg ty =
  match get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | Types.Tpoly (t, _) -> first_arrow_arg t
  | _ -> None

let is_arrow ty = first_arrow_arg ty <> None

(* Mutable-state classification for domain-purity: the types whose
   capture in a sweep job means cross-domain shared mutation. Arrays
   are deliberately absent — writing each job's result into its own
   index slot is the sanctioned merge pattern (DESIGN.md §9). *)
let mutable_containers =
  [ [ "ref" ]; [ "Hashtbl"; "t" ]; [ "Buffer"; "t" ]; [ "Queue"; "t" ];
    [ "Stack"; "t" ]; [ "Atomic"; "t" ]
  ]

let mutable_type_witness env ty =
  let rec go depth ty =
    if depth > 6 then None
    else
      match get_desc ty with
      | Types.Tconstr (p, _, _) when Path.same p Predef.path_bytes -> Some "Bytes.t"
      | Types.Tconstr (p, _, _) -> (
        let parts = path_parts p in
        match
          List.find_opt (fun suffix -> suffix_is suffix parts) mutable_containers
        with
        | Some suffix -> Some (String.concat "." suffix)
        | None -> (
          match Env.find_type p env with
          | decl -> (
            match (decl.Types.type_kind, decl.Types.type_manifest) with
            | Types.Type_record (lbls, _), _
              when List.exists (fun l -> l.Types.ld_mutable <> Asttypes.Immutable) lbls
              -> Some (Path.name p ^ " (mutable record)")
            | _, Some t -> go (depth + 1) t
            | _ -> None)
          | exception _ -> None))
      | _ -> None
  in
  go 0 ty

(* ------------------------------------------------------------------ *)
(* Sub-walks over argument subtrees                                    *)
(* ------------------------------------------------------------------ *)

(* Order-sensitive accumulation evidence inside a fold/iter body:
   consing onto a variable (or onto [!r]), float +./*. into the
   accumulator, string ^, list @, Buffer.add_*. List literals
   ([1; 2] chains ending in []) are not evidence — only cons whose
   tail is an accumulator-shaped expression.

   Float arithmetic is only a witness when it plausibly feeds the
   accumulation: for a fold, [float_acc] says the accumulator type
   contains a float (a bool fold with an incidental [x +. eps]
   comparison is order-safe); for an iter, the arithmetic must read a
   ref that the body itself assigns ([sum := !sum +. x]) — per-key
   [Hashtbl.replace] updates computed from read-only outer state are
   not cross-iteration accumulation. *)
let accumulation_evidence ~float_acc body =
  let witness = ref None in
  let note w = if !witness = None then witness := Some w in
  let scan f =
    let it =
      { Tast_iterator.default_iterator with
        expr = (fun self e -> f e; Tast_iterator.default_iterator.expr self e)
      }
    in
    it.expr it body
  in
  (* Refs the body itself assigns — the accumulation targets an iter
     body can have. *)
  let assigned = ref [] in
  scan (fun e ->
      match e.exp_desc with
      | Texp_apply
          ( { exp_desc = Texp_ident (p, _, _); _ },
            (_, Some { exp_desc = Texp_ident (q, _, _); _ }) :: _ )
        when path_parts p = [ ":=" ] ->
        assigned := q :: !assigned
      | _ -> ());
  let reads_assigned_ref e0 =
    let hit = ref false in
    let it =
      { Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.exp_desc with
            | Texp_apply
                ( { exp_desc = Texp_ident (p, _, _); _ },
                  [ (_, Some { exp_desc = Texp_ident (q, _, _); _ }) ] )
              when path_parts p = [ "!" ] && List.exists (Path.same q) !assigned ->
              hit := true
            | _ -> ());
            Tast_iterator.default_iterator.expr self e)
      }
    in
    it.expr it e0;
    !hit
  in
  let is_acc_shaped (e : expression) =
    match e.exp_desc with
    | Texp_ident _ -> true
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ _ ]) ->
      path_parts p = [ "!" ]
    | _ -> false
  in
  scan (fun e ->
      match e.exp_desc with
      | Texp_construct (_, cstr, args) when cstr.Types.cstr_name = "::" -> (
        match args with
        | [ _; tail ] when is_acc_shaped tail -> note "list cons (::)"
        | _ -> ())
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        let operands = List.filter_map snd args in
        let feeds_acc () =
          (float_acc && List.exists is_acc_shaped operands)
          || List.exists reads_assigned_ref operands
        in
        match path_parts p with
        | [ "+." ] -> if feeds_acc () then note "float accumulation (+.)"
        | [ "*." ] -> if feeds_acc () then note "float accumulation (*.)"
        | [ "^" ] ->
          if List.exists is_acc_shaped operands || List.exists reads_assigned_ref operands
          then note "string concatenation (^)"
        | [ "@" ] ->
          if List.exists is_acc_shaped operands || List.exists reads_assigned_ref operands
          then note "list append (@)"
        | [ "Buffer"; f ] when String.length f >= 3 && String.sub f 0 3 = "add" ->
          note ("Buffer." ^ f)
        | _ -> ())
      | _ -> ());
  !witness

(* Free identifiers of an argument subtree: every local ident used but
   not bound by any pattern inside it. Over-approximates captures with
   same-unit module-level bindings — which is intended: a module-level
   Hashtbl reached from a sweep job is exactly the shared-state hazard
   the pass exists for. *)
let free_idents expr =
  let bound = ref [] in
  let used = ref [] in
  let it =
    { Tast_iterator.default_iterator with
      pat =
        (fun (type k) self (p : k general_pattern) ->
          (* pat_bound_idents is version-stable where the Tpat_var
             constructor arity is not; visiting every sub-pattern adds
             duplicates, which are harmless. *)
          bound := pat_bound_idents p @ !bound;
          Tast_iterator.default_iterator.pat self p);
      expr =
        (fun self e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) ->
            used := (id, e.exp_type, e.exp_env, e.exp_loc) :: !used
          | _ -> ());
          Tast_iterator.default_iterator.expr self e)
    }
  in
  it.expr it expr;
  List.filter
    (fun (id, _, _, _) -> not (List.exists (Ident.same id) !bound))
    (List.rev !used)

(* ------------------------------------------------------------------ *)
(* The pass driver                                                     *)
(* ------------------------------------------------------------------ *)

let sort_functions =
  [ [ "List"; "sort" ]; [ "List"; "stable_sort" ]; [ "List"; "fast_sort" ];
    [ "List"; "sort_uniq" ]; [ "Array"; "sort" ]; [ "Array"; "stable_sort" ];
    [ "Array"; "fast_sort" ]
  ]

let is_sort_app (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
    List.exists (fun s -> suffix_is s (path_parts p)) sort_functions
  | _ -> false

(* Exact paths (after Stdlib-stripping): suffix matching would also
   catch Float.compare / Int.compare, which are precisely the fixes. *)
let poly_compare_names = [ [ "compare" ]; [ "=" ]; [ "<>" ]; [ "Hashtbl"; "hash" ];
                           [ "Hashtbl"; "seeded_hash" ] ]

let is_poly_compare p = List.mem (path_parts p) poly_compare_names

(* Stdlib's [min]/[max], not a local binding of the same name. *)
let is_stdlib_min_max p =
  match p with
  | Path.Pdot _ -> ( match path_parts p with [ "min" ] | [ "max" ] -> true | _ -> false)
  | _ -> false

let wall_clock_names = [ [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ];
                         [ "Unix"; "time" ]; [ "Unix"; "times" ] ]

let job_spawn_names =
  [ [ "Sweep"; "map" ]; [ "Sweep"; "map_list" ]; [ "Sweep"; "map_ranges" ] ]

let positional (args : (Asttypes.arg_label * expression option) list) =
  List.filter_map (function Asttypes.Nolabel, Some e -> Some e | _ -> None) args

let all_args (args : (Asttypes.arg_label * expression option) list) =
  List.filter_map (function _, Some e -> Some e | _ -> None) args

let analyze ~kind ~file structure =
  let findings = ref [] in
  (* Locations of fold applications that flow straight into a sort
     (direct argument, or through |> / @@), sanctioned for
     hashtbl-order. Parents are visited before children, so the set is
     populated before the fold itself is examined. *)
  let sanctioned : Location.t list ref = ref [] in
  let sanction (e : expression) = sanctioned := e.exp_loc :: !sanctioned in
  let note_sort_context (e : expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
      let parts = path_parts p in
      if List.exists (fun s -> suffix_is s parts) sort_functions then (
        (* List.sort cmp data: the data operand is the last positional. *)
        match List.rev (positional args) with
        | data :: _ -> sanction data
        | [] -> ())
      else
        match (parts, positional args) with
        | [ "|>" ], [ data; fn ] when is_sort_app fn -> sanction data
        | [ "@@" ], [ fn; data ] when is_sort_app fn -> sanction data
        | _ -> ())
    (* [x |> List.sort cmp] and [List.sort cmp @@ x] are rewritten by
       the typechecker into a nested apply whose function is the sort
       partial application — the pipe operator never reaches the
       Typedtree. *)
    | Texp_apply (fn, args) when is_sort_app fn -> (
      match List.rev (positional args) with
      | data :: _ -> sanction data
      | [] -> ())
    | _ -> ()
  in
  let check_hashtbl_order (e : expression) =
    if kind <> Rules.Test then
      match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        let parts = path_parts p in
        let op =
          if suffix_is [ "Hashtbl"; "fold" ] parts then Some "Hashtbl.fold"
          else if suffix_is [ "Hashtbl"; "iter" ] parts then Some "Hashtbl.iter"
          else None
        in
        match (op, positional args) with
        | Some op, body :: _ when not (List.mem e.exp_loc !sanctioned) -> (
          (* For a fully-applied fold the application's type IS the
             accumulator type; iter returns unit, so this is false. *)
          let float_acc = contains_float (real_env e.exp_env) 0 e.exp_type in
          match accumulation_evidence ~float_acc body with
          | Some witness ->
            report findings "hashtbl-order" ~file e.exp_loc
              (Printf.sprintf
                 "%s accumulates via %s in hash-bucket order, which is not a \
                  stable public order; materialize and sort by a total key \
                  (e.g. |> List.sort), or justify with a lint: allow"
                 op witness)
          | None -> ())
        | _ -> ())
      | _ -> ()
  in
  (* Operator idents whose enclosing application already decided the
     verdict (constant-constructor comparisons like [xs = []] are
     tag-only and safe); the bare-ident visit skips these. *)
  let decided : Location.t list ref = ref [] in
  let is_constant_constructor (e : expression) =
    match e.exp_desc with
    | Texp_construct (_, cstr, []) -> cstr.Types.cstr_arity = 0
    | _ -> false
  in
  let flag_poly_compare (fn : expression) p =
    let name = String.concat "." (path_parts p) in
    match first_arrow_arg fn.exp_type with
    | None -> ()
    | Some arg_ty -> (
      let env = real_env fn.exp_env in
      if contains_float env 0 arg_ty then
        report findings "poly-compare" ~file fn.exp_loc
          (Printf.sprintf
             "polymorphic %s instantiated at a float-containing type compares \
              raw IEEE bits; use Float.compare/Float.equal or a typed \
              comparator on the float field"
             name)
      else
        match abstract_head env 0 arg_ty with
        | Some tyname ->
          report findings "poly-compare" ~file fn.exp_loc
            (Printf.sprintf
               "polymorphic %s instantiated at abstract type %s reads \
                unspecified representation; expose and use a dedicated \
                comparator"
               name tyname)
        | None ->
          if is_type_var arg_ty then
            report findings "poly-compare" ~file fn.exp_loc
              (Printf.sprintf
                 "polymorphic %s instantiated at an unresolved type variable \
                  compares whatever each caller passes, floats included; \
                  constrain the type or take a comparator argument"
                 name))
  in
  (* [min]/[max] at a float-containing type compile to a call with
     both floats boxed, which then runs the generic [caml_lessequal] /
     [caml_greaterequal]; only library code is held to this. *)
  let flag_min_max (fn : expression) p =
    match first_arrow_arg fn.exp_type with
    | Some arg_ty when contains_float (real_env fn.exp_env) 0 arg_ty ->
      let name = String.concat "." (path_parts p) in
      report findings "poly-compare" ~file fn.exp_loc
        (Printf.sprintf
           "polymorphic %s instantiated at a float-containing type boxes both \
            operands and calls the generic comparison; spell it out in \
            Stdlib's operand order: %s (Float.min/Float.max order NaN and \
            -0. differently)"
           name
           (if String.equal name "min" then "if a <= b then a else b"
            else "if a >= b then a else b"))
    | _ -> ()
  in
  let check_min_max (e : expression) =
    if kind = Rules.Lib then
      match e.exp_desc with
      | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), _)
        when is_stdlib_min_max p ->
        decided := fn.exp_loc :: !decided;
        flag_min_max fn p
      | Texp_ident (p, _, _) when is_stdlib_min_max p ->
        if not (List.mem e.exp_loc !decided) then flag_min_max e p
      | _ -> ()
  in
  let check_poly_compare (e : expression) =
    if kind <> Rules.Test then
      match e.exp_desc with
      | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args)
        when is_poly_compare p ->
        decided := fn.exp_loc :: !decided;
        (* [xs = []] / [o <> None] compare the head constructor tag
           and return before any float is reached: safe at any type. *)
        if not (List.exists is_constant_constructor (positional args)) then
          flag_poly_compare fn p
      | Texp_ident (p, _, _) when is_poly_compare p ->
        if not (List.mem e.exp_loc !decided) then flag_poly_compare e p
      | _ -> ()
  in
  let check_domain_purity (e : expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when List.exists (fun s -> suffix_is s (path_parts p)) job_spawn_names ->
      let spawn = String.concat "." (path_parts p) in
      List.iter
        (fun (arg : expression) ->
          (* Only inline closures are analysed: a named function passed
             by ident has its body elsewhere (and typically in scope
             the author vetted); the self-containment rule is about
             ad-hoc lambdas grabbing enclosing mutable state. *)
          match arg.exp_desc with
          | Texp_ident _ -> ()
          | _ when is_arrow arg.exp_type ->
            (* One finding per captured ident, not per occurrence. *)
            let seen = ref [] in
            List.iter
              (fun (id, ty, env, loc) ->
                if List.exists (Ident.same id) !seen then ()
                else begin
                  seen := id :: !seen;
                  match mutable_type_witness (real_env env) ty with
                | Some witness ->
                  report findings "domain-purity" ~file loc
                    (Printf.sprintf
                       "job closure passed to %s captures '%s' : %s from an \
                        enclosing scope; sweep jobs must be self-contained \
                        (derive state from the job index — DESIGN.md §9)"
                       spawn (Ident.name id) witness)
                  | None -> ()
                end)
              (free_idents arg)
          | _ -> ())
        (all_args args)
    | _ -> ()
  in
  let check_nondet (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      let parts = path_parts p in
      (match parts with
      | [ "Random"; f ]
        when kind = Rules.Lib || kind = Rules.Bin || kind = Rules.Other ->
        report findings "nondet-source" ~file e.exp_loc
          (Printf.sprintf
             "Random.%s draws from the global generator — unseeded and shared \
              across domains; thread an explicit seeded Random.State.t or \
              Util.Prng value instead"
             f)
      | _ -> ());
      if kind = Rules.Lib
         && List.exists (fun s -> suffix_is s parts) wall_clock_names
      then
        report findings "nondet-source" ~file e.exp_loc
          (Printf.sprintf
             "%s reads the wall clock from library code; timing belongs in \
              bench/ (or justify a diagnostic that is excluded from \
              fingerprints)"
             (String.concat "." parts)))
    | _ -> ()
  in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          note_sort_context e;
          check_hashtbl_order e;
          check_poly_compare e;
          check_min_max e;
          check_domain_purity e;
          check_nondet e;
          Tast_iterator.default_iterator.expr self e)
    }
  in
  it.structure it structure;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* cmt loading                                                         *)
(* ------------------------------------------------------------------ *)

let cmt_error ~file message =
  [ { Rules.rule = "cmt-error"; file; line = 1; col = 0; message; suppressible = false } ]

let read_source path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> Some s
  | exception Sys_error _ -> None

let lint_cmt ?kind ?(source_root = ".") path =
  match Cmt_format.read_cmt path with
  | exception exn ->
    cmt_error ~file:path (Printf.sprintf "cannot read cmt: %s" (Printexc.to_string exn))
  | infos -> (
    match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation structure, Some src ->
      let kind = match kind with Some k -> k | None -> Rules.kind_of_path src in
      let findings = analyze ~kind ~file:src structure in
      (match read_source (Filename.concat source_root src) with
      | Some source ->
        let sups = Rules.suppressions_of_source ~file:src source in
        let findings = Rules.filter_suppressed findings sups in
        (* The typed poly-compare pass and the syntactic float-eq rule
           see the same hazard from two sides; a justified float-eq
           allowance covers the typed view of that site too, so one
           annotation suffices. *)
        let findings =
          List.filter
            (fun (f : Rules.finding) ->
              f.Rules.rule <> "poly-compare"
              || Rules.filter_suppressed [ { f with Rules.rule = "float-eq" } ] sups
                 <> [])
            findings
        in
        Rules.sort_findings findings
      | None ->
        (* Source unavailable (generated module, stale artifact):
           suppressions cannot be honoured, so report nothing rather
           than unsuppressible noise about code nobody wrote. *)
        [])
    | Cmt_format.Implementation _, None -> []
    | _, _ -> [] (* interfaces, partial implementations: nothing to check *))

(* Walk [root] (entering dot-directories — dune hides .objs there) and
   collect every .cmt and .cmti file. *)
let rec cmt_files_under root acc =
  if Sys.is_directory root then
    Array.fold_left
      (fun acc entry -> cmt_files_under (Filename.concat root entry) acc)
      acc
      (let entries = Sys.readdir root in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix root ".cmt" || Filename.check_suffix root ".cmti" then
    root :: acc
  else acc

let cmt_files_under root = List.rev (cmt_files_under root [])

(* ------------------------------------------------------------------ *)
(* unused-export: a whole-program pass                                 *)
(* ------------------------------------------------------------------ *)

(* A compilation unit is keyed by its artifact directory and module
   name. Library modules carry dune's wrapper prefix ([S3_sim__Matrix]
   and [S3_storage__Matrix] differ), but every executable's modules are
   named [Dune__exe__X], so two programs can each have a
   [Dune__exe__Main]. A module name resolves to the unit in the
   referrer's own directory first, else to the only unit of that
   name. *)
type unit_key = string * string

type comp_unit = {
  key : unit_key;
  kind : Rules.kind;
  impl : (string * structure) option;  (* source path, typedtree *)
  intf : (string * signature) option;
}

let load_units paths =
  let units = Hashtbl.create 64 in
  List.iter
    (fun path ->
      match Cmt_format.read_cmt path with
      | exception _ -> () (* lint_cmt already reports the unreadable file *)
      | infos -> (
        let key = (Filename.dirname path, infos.Cmt_format.cmt_modname) in
        let prev =
          match Hashtbl.find_opt units key with
          | Some u -> u
          | None -> { key; kind = Rules.Other; impl = None; intf = None }
        in
        match (infos.Cmt_format.cmt_annots, infos.Cmt_format.cmt_sourcefile) with
        | Cmt_format.Implementation str, Some src ->
          Hashtbl.replace units key
            { prev with kind = Rules.kind_of_path src; impl = Some (src, str) }
        | Cmt_format.Interface sg, Some src ->
          Hashtbl.replace units key
            { prev with kind = Rules.kind_of_path src; intf = Some (src, sg) }
        | _ -> ()))
    paths;
  Hashtbl.fold (fun _ u acc -> u :: acc) units []
  |> List.sort (fun a b -> compare a.key b.key)

(* A path as names, with the unit's local module aliases
   ([module T = S3_workload.Task]) substituted; [None] for functor
   applications, whose values the pass does not track. *)
let rec names_of_path local p =
  match p with
  | Path.Pident id -> (
    match Ident.Tbl.find_opt local id with Some names -> Some names | None -> Some [ Ident.name id ])
  | Path.Pdot (q, s) -> Option.map (fun names -> names @ [ s ]) (names_of_path local q)
  | _ -> None

let rec alias_target (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

(* [?x:_]: a wildcard pattern whose source text is preceded by
   [?label:]. Working from the pattern and the source keeps the check
   off Texp_function, whose shape changed in 5.2. *)
let ignored_optional source (p : pattern) =
  let i = p.pat_loc.loc_start.pos_cnum in
  let blank c = c = ' ' || c = '\n' || c = '\t' in
  let ident c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '\'' in
  let rec skip j = if j >= 0 && blank source.[j] then skip (j - 1) else j in
  if i <= 0 || i >= String.length source || source.[i] <> '_' then None
  else
    let j = skip (i - 1) in
    if j < 0 || source.[j] <> ':' then None
    else
      let stop = skip (j - 1) in
      let rec start k = if k >= 0 && ident source.[k] then start (k - 1) else k in
      let q = start stop in
      if q >= 0 && q < stop && source.[q] = '?' then Some (String.sub source (q + 1) (stop - q))
      else None

let unit_display (_, modname) =
  Str.global_replace (Str.regexp_string "__") "." modname

(* The optional parameters of a [val]'s written type, each with the
   location of its own type, so a finding can point at its line. *)
let rec optional_params (ct : core_type) =
  match ct.ctyp_desc with
  | Ttyp_arrow (Asttypes.Optional l, dom, cod) -> (l, dom.ctyp_loc) :: optional_params cod
  | Ttyp_arrow (_, _, cod) -> optional_params cod
  | Ttyp_poly (_, t) -> optional_params t
  | _ -> []

let unused_exports ?(source_root = ".") paths =
  let units = load_units paths in
  let by_key = Hashtbl.create 64 and by_name = Hashtbl.create 64 in
  List.iter
    (fun u ->
      Hashtbl.replace by_key u.key u;
      Hashtbl.replace by_name (snd u.key)
        (u.key :: Option.value ~default:[] (Hashtbl.find_opt by_name (snd u.key))))
    units;
  let find_unit ~dir name =
    if Hashtbl.mem by_key (dir, name) then Some (dir, name)
    else match Hashtbl.find_opt by_name name with Some [ key ] -> Some key | _ -> None
  in
  (* Pass 1: every unit's top-level module aliases, from both the
     implementation and the interface — dune's wrapper ([module
     Lpst = S3_core__Lpst]) is one. *)
  let exported = Hashtbl.create 64 in
  List.iter
    (fun u ->
      let local = Ident.Tbl.create 8 in
      let note id p =
        match names_of_path local p with
        | Some names ->
          Ident.Tbl.replace local id names;
          Hashtbl.replace exported (u.key, Ident.name id) names
        | None -> ()
      in
      Option.iter
        (fun (_, str) ->
          List.iter
            (fun item ->
              match item.str_desc with
              | Tstr_module { mb_id = Some id; mb_expr; _ } ->
                Option.iter (note id) (alias_target mb_expr)
              | _ -> ())
            str.str_items)
        u.impl;
      Option.iter
        (fun (_, sg) ->
          List.iter
            (fun item ->
              match item.sig_desc with
              | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_alias (p, _); _ }; _ } ->
                note id p
              | _ -> ())
            sg.sig_items)
        u.intf)
    units;
  let rec canonical ~dir names =
    match names with
    | [] -> None
    | m :: rest -> (
      match find_unit ~dir m with
      | None -> None
      | Some key -> (
        match rest with
        | sub :: rest' when Hashtbl.mem exported (key, sub) ->
          canonical ~dir:(fst key) (Hashtbl.find exported (key, sub) @ rest')
        | _ -> Some (key, rest)))
  in
  (* Pass 2: references from every unit outside test/. *)
  let external_refs = Hashtbl.create 256 and own_refs = Hashtbl.create 256 in
  let whole = Hashtbl.create 8 and passed = Hashtbl.create 256 in
  let ignored = Hashtbl.create 8 in
  List.iter
    (fun u ->
      match u.impl with
      | Some (src, str) when u.kind <> Rules.Test ->
        let local = Ident.Tbl.create 8 in
        let top = Ident.Tbl.create 64 in
        List.iter
          (fun item ->
            match item.str_desc with
            | Tstr_value (_, vbs) ->
              List.iter (fun id -> Ident.Tbl.replace top id ()) (let_bound_idents vbs)
            | _ -> ())
          str.str_items;
        let resolve p =
          match p with
          | Path.Pident id when Ident.Tbl.mem top id -> Some (u.key, [ Ident.name id ])
          | _ -> Option.bind (names_of_path local p) (canonical ~dir:(fst u.key))
        in
        let alias id me =
          match alias_target me with
          | Some p ->
            Option.iter (Ident.Tbl.replace local id) (names_of_path local p);
            true
          | None -> false
        in
        let it =
          { Tast_iterator.default_iterator with
            expr =
              (fun self e ->
                (match e.exp_desc with
                | Texp_ident (p, _, _) -> (
                  match resolve p with
                  | Some (key, vpath) ->
                    Hashtbl.replace (if key = u.key then own_refs else external_refs)
                      (key, vpath) ()
                  | None -> ())
                | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
                  match resolve p with
                  | Some (key, vpath) ->
                    List.iter
                      (function
                        | Asttypes.Optional l, Some (a : expression)
                          when not a.exp_loc.Location.loc_ghost ->
                          Hashtbl.replace passed (key, vpath, l) ()
                        | _ -> ())
                      args
                  | None -> ())
                | _ -> ());
                match e.exp_desc with
                | Texp_letmodule (Some id, _, _, me, body) when alias id me -> self.expr self body
                | _ -> Tast_iterator.default_iterator.expr self e);
            module_binding =
              (fun self mb ->
                match mb.mb_id with
                | Some id when alias id mb.mb_expr -> ()
                | _ -> Tast_iterator.default_iterator.module_binding self mb);
            module_expr =
              (fun self me ->
                (* A unit passed whole — to a functor, [include], a
                   first-class pack — uses every value it exports. *)
                (match me.mod_desc with
                | Tmod_ident (p, _) -> (
                  match Option.bind (names_of_path local p) (canonical ~dir:(fst u.key)) with
                  | Some (key, []) when key <> u.key -> Hashtbl.replace whole key ()
                  | _ -> ())
                | _ -> ());
                Tast_iterator.default_iterator.module_expr self me)
          }
        in
        it.structure it str;
        if u.kind = Rules.Lib then (
          match read_source (Filename.concat source_root src) with
          | None -> ()
          | Some source ->
            List.iter
              (fun item ->
                match item.str_desc with
                | Tstr_value (_, vbs) ->
                  List.iter
                    (fun vb ->
                      match let_bound_idents [ vb ] with
                      | [ id ] ->
                        let pit =
                          { Tast_iterator.default_iterator with
                            pat =
                              (fun (type k) self (p : k general_pattern) ->
                                (match p.pat_desc with
                                | Tpat_any ->
                                  Option.iter
                                    (fun l -> Hashtbl.replace ignored (u.key, Ident.name id, l) ())
                                    (ignored_optional source (p :> pattern))
                                | _ -> ());
                                Tast_iterator.default_iterator.pat self p)
                          }
                        in
                        pit.expr pit vb.vb_expr
                      | _ -> ())
                    vbs
                | _ -> ())
              str.str_items)
      | _ -> ())
    units;
  List.concat_map
    (fun u ->
      match u.intf with
      | Some (src, sg) when u.kind = Rules.Lib -> (
        (* Each finding with the line of its [val]: an allowance there
           covers the value and every optional argument, one on an
           argument's own line covers that argument alone. *)
        let findings = ref [] in
        List.iter
          (fun item ->
            match item.sig_desc with
            | Tsig_value vd ->
              let name = vd.val_name.txt in
              let full = unit_display u.key ^ "." ^ name in
              let vpath = [ name ] in
              let note ?(loc = vd.val_loc) msg =
                findings :=
                  (finding "unused-export" ~file:src loc msg, vd.val_loc.loc_start.pos_lnum)
                  :: !findings
              in
              if not (Hashtbl.mem external_refs (u.key, vpath) || Hashtbl.mem whole u.key) then
                note
                  (if Hashtbl.mem own_refs (u.key, vpath) then
                     Printf.sprintf
                       "%s is exported, but only its own module uses it; drop it from \
                        the interface"
                       full
                   else
                     Printf.sprintf
                       "%s is exported, but nothing outside test/ references it; delete \
                        it, or move a test oracle into test/"
                       full)
              else
                List.iter
                  (fun (l, loc) ->
                    if Hashtbl.mem ignored (u.key, name, l) then
                      note ~loc
                        (Printf.sprintf
                           "optional argument ?%s of %s is bound as ?%s:_; the body \
                            ignores it"
                           l full l)
                    else if not (Hashtbl.mem passed (u.key, vpath, l)) then
                      note ~loc
                        (Printf.sprintf
                           "optional argument ?%s of %s: no caller outside test/ passes it"
                           l full))
                  (optional_params vd.val_desc)
            | _ -> ())
          sg.sig_items;
        match read_source (Filename.concat source_root src) with
        | Some source ->
          let sups = Rules.suppressions_of_source ~file:src source in
          let allowed (f : Rules.finding) = Rules.filter_suppressed [ f ] sups = [] in
          List.rev !findings
          |> List.filter_map (fun (f, val_line) ->
                 if allowed f || allowed { f with Rules.line = val_line } then None else Some f)
        | None -> [])
      | _ -> [])
    units
  |> Rules.sort_findings
