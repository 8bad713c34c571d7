(* The s3lint rule engine over in-memory fixture sources: one positive
   (finding fires) and one suppressed-negative (a justified annotation
   silences it) case per rule, plus the suppression-hygiene rules.
   Running the engine as a library keeps these fast and hermetic — no
   shelling out to the driver. *)

module Rules = S3lint.Rules

let tc = Alcotest.test_case

let lint ?(kind = Rules.Lib) ?(file = "lib/core/fixture.ml") source =
  Rules.lint_source ~kind ~file source

let rules_of findings = List.map (fun (f : Rules.finding) -> f.Rules.rule) findings

let check_rules msg expected findings =
  Alcotest.(check (list string)) msg expected (rules_of findings)

(* --- float-eq ----------------------------------------------------- *)

let test_float_eq_fires () =
  check_rules "literal operand" [ "float-eq" ] (lint "let f x = x = 1.0");
  check_rules "both ways" [ "float-eq" ] (lint "let f x = 0. <> x");
  check_rules "annotated operand" [ "float-eq" ] (lint "let f (x : float) y = (x : float) = y");
  check_rules "arith evidence" [ "float-eq" ] (lint "let f a b c = (a +. b) = c");
  check_rules "compare" [ "float-eq" ] (lint "let f x = compare x 1.5 = 0");
  check_rules "physical eq" [ "float-eq" ] (lint "let f x = x == 0.5");
  check_rules "nan" [ "float-eq" ] (lint "let f x = x = nan")

let test_float_eq_quiet () =
  check_rules "int compare untouched" [] (lint "let f x = x = 1");
  check_rules "record literal untouched" [] (lint "let f () = { Foo.rate = 0. }");
  check_rules "ordering untouched" [] (lint "let f x = x >= 0.5");
  check_rules "infinity sentinel ok" [] (lint "let f x = x = infinity")

let test_float_eq_suppressed () =
  check_rules "comment same line" []
    (lint "let f x = x = 1.0 (* lint: allow float-eq — exact sentinel round-trip *)");
  check_rules "comment line above" []
    (lint
       "let f x =\n\
        \  (* lint: allow float-eq — exact sentinel round-trip *)\n\
        \  x = 1.0");
  check_rules "attribute on binding" []
    (lint "let f x = x = 1.0 [@@lint.allow \"float-eq\" \"exact sentinel round-trip\"]");
  check_rules "file-wide attribute" []
    (lint "[@@@lint.allow \"float-eq\" \"fixture exercises exact comparisons\"]\nlet f x = x = 1.0")

(* --- unsafe-indexing ---------------------------------------------- *)

let test_unsafe_fires () =
  check_rules "allowlisted module still needs justification" [ "unsafe-indexing" ]
    (lint ~file:"lib/storage/reed_solomon.ml" "let f a i = Array.unsafe_get a i");
  check_rules "Bytes too" [ "unsafe-indexing" ]
    (lint ~file:"lib/lp/simplex.ml" "let f b i = Bytes.unsafe_get b i")

let test_unsafe_outside_allowlist () =
  (* Outside the hot-path set the finding is non-suppressible: even a
     justified annotation must not silence it. *)
  let src =
    "(* lint: allow unsafe-indexing — trust me, it is fine *)\nlet f a i = Array.unsafe_get a i"
  in
  match lint ~file:"lib/core/lpst.ml" src with
  | [ f ] ->
    Alcotest.(check string) "rule" "unsafe-indexing" f.Rules.rule;
    Alcotest.(check bool) "non-suppressible" false f.Rules.suppressible
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_unsafe_suppressed () =
  check_rules "justified comment in hot module" []
    (lint ~file:"lib/storage/gf256.ml"
       "let f a i =\n\
        \  (* lint: allow unsafe-indexing — i < Array.length a checked by caller *)\n\
        \  Array.unsafe_get a i");
  check_rules "justified attribute on the binding" []
    (lint ~file:"lib/sim/engine.ml"
       "let f a i = Array.unsafe_get a i\n\
        [@@lint.allow \"unsafe-indexing\" \"i bounded by construction in recompute\"]")

let test_unsafe_primitive () =
  (* Unchecked %caml_*u load/store primitives are unsafe accessors in
     external-declaration clothing: same rule, same allowlist gate. *)
  (match
     lint ~file:"lib/core/lpst.ml"
       "external get64 : Bytes.t -> int -> int64 = \"%caml_bytes_get64u\""
   with
  | [ f ] ->
    Alcotest.(check string) "rule" "unsafe-indexing" f.Rules.rule;
    Alcotest.(check bool) "non-suppressible outside allowlist" false f.Rules.suppressible
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  check_rules "hot module still needs justification" [ "unsafe-indexing" ]
    (lint ~file:"lib/storage/schedule.ml"
       "external get64 : Bytes.t -> int -> int64 = \"%caml_bytes_get64u\"");
  check_rules "checked sibling primitive untouched" []
    (lint ~file:"lib/core/lpst.ml"
       "external get64 : Bytes.t -> int -> int64 = \"%caml_bytes_get64\"")

let test_unsafe_primitive_suppressed () =
  check_rules "justified comment above the declaration" []
    (lint ~file:"lib/storage/schedule.ml"
       "(* lint: allow unsafe-indexing — bounds validated once per apply *)\n\
        external get64 : Bytes.t -> int -> int64 = \"%caml_bytes_get64u\"");
  check_rules "justified attribute on the declaration" []
    (lint ~file:"lib/storage/schedule.ml"
       "external set64 : Bytes.t -> int -> int64 -> unit = \"%caml_bytes_set64u\"\n\
        [@@lint.allow \"unsafe-indexing\" \"offsets pre-checked by check_regions\"]")

(* --- catch-all-exn ------------------------------------------------ *)

let test_catch_all_fires () =
  check_rules "wildcard handler" [ "catch-all-exn" ]
    (lint "let f g = try g () with _ -> 0");
  check_rules "bound-and-dropped handler" [ "catch-all-exn" ]
    (lint "let f g = try g () with e -> ()");
  check_rules "match exception arm" [ "catch-all-exn" ]
    (lint "let f g = match g () with x -> x | exception _ -> 0")

let test_catch_all_quiet () =
  check_rules "specific exception ok" []
    (lint "let f g = try g () with Not_found -> 0");
  check_rules "reraising handler ok" []
    (lint "let f g = try g () with e -> raise e")

let test_catch_all_suppressed () =
  check_rules "justified comment" []
    (lint
       "let f g =\n\
        \  (* lint: allow catch-all-exn — best-effort cleanup, error reported upstream *)\n\
        \  try g () with _ -> 0")

(* --- no-print-in-lib ---------------------------------------------- *)

let test_print_fires () =
  check_rules "print_endline in lib" [ "no-print-in-lib" ]
    (lint "let f () = print_endline \"hi\"");
  check_rules "Printf.printf in lib" [ "no-print-in-lib" ]
    (lint "let f x = Printf.printf \"%d\" x")

let test_print_scoping () =
  check_rules "bench may print" []
    (lint ~kind:Rules.Bench ~file:"bench/main.ml" "let f () = print_endline \"hi\"");
  check_rules "report.ml is the output layer" []
    (lint ~file:"lib/sim/report.ml" "let f () = print_endline \"hi\"");
  check_rules "sprintf is pure, untouched" []
    (lint "let f x = Printf.sprintf \"%d\" x")

let test_print_suppressed () =
  check_rules "justified comment" []
    (lint
       "let f () = print_endline \"hi\" (* lint: allow no-print-in-lib — debug hook behind env var *)")

(* --- partial-stdlib ----------------------------------------------- *)

let test_partial_fires () =
  check_rules "List.hd" [ "partial-stdlib" ] (lint "let f l = List.hd l");
  check_rules "Hashtbl.find" [ "partial-stdlib" ] (lint "let f h k = Hashtbl.find h k");
  check_rules "Option.get" [ "partial-stdlib" ] (lint "let f o = Option.get o")

let test_partial_scoping () =
  check_rules "tests are exempt" []
    (lint ~kind:Rules.Test ~file:"test/test_x.ml" "let f l = List.hd l");
  check_rules "find_opt untouched" [] (lint "let f h k = Hashtbl.find_opt h k")

let test_partial_suppressed () =
  check_rules "justified comment" []
    (lint
       "let f l =\n\
        \  (* lint: allow partial-stdlib — l is non-empty: guarded by the caller's match *)\n\
        \  List.hd l")

(* --- mli-required ------------------------------------------------- *)

let test_mli_required () =
  let exists = function "lib/core/lpst.mli" -> true | _ -> false in
  check_rules "covered module ok" [] (Rules.missing_mlis ~exists [ "lib/core/lpst.ml" ]);
  check_rules "uncovered module flagged" [ "mli-required" ]
    (Rules.missing_mlis ~exists [ "lib/core/rogue.ml" ]);
  check_rules "bin is out of scope" [] (Rules.missing_mlis ~exists [ "bin/s3sim.ml" ])

(* --- suppression hygiene ------------------------------------------ *)

let test_suppression_needs_justification () =
  (* An empty justification suppresses nothing and is itself flagged. *)
  check_rules "finding survives, annotation flagged" [ "suppression"; "float-eq" ]
    (lint "let f x = x = 1.0 (* lint: allow float-eq *)")

let test_suppression_unknown_rule () =
  check_rules "unknown rule flagged" [ "suppression" ]
    (lint "let f x = x + 1 (* lint: allow no-such-rule — misremembered the name *)")

let test_suppression_scope_is_tight () =
  (* Two lines below the comment is out of range: the finding stays. *)
  check_rules "comment does not leak downward" [ "float-eq" ]
    (lint
       "(* lint: allow float-eq — only covers the next line *)\n\
        let unrelated = 1\n\
        let f x = x = 1.0")

let test_suppression_in_string_is_inert () =
  (* The comment scanner is lexically aware: an allowance spelled
     inside a string literal (as this very file's fixtures do) is data,
     not a suppression. *)
  check_rules "string literal does not suppress" [ "float-eq" ]
    (lint
       "let f x =\n\
        \  let _doc = \"(* lint: allow float-eq — inside a string *)\" in\n\
        \  x = 1.0");
  check_rules "comment after a string with escapes still works" []
    (lint
       "let f x =\n\
        \  let _s = \"quote \\\" inside\" in\n\
        \  (* lint: allow float-eq — exact sentinel round-trip *)\n\
        \  x = 1.0")

let test_parse_error_reported () =
  match lint "let f = (" with
  | [ f ] ->
    Alcotest.(check string) "rule" "parse-error" f.Rules.rule;
    Alcotest.(check bool) "non-suppressible" false f.Rules.suppressible
  | fs -> Alcotest.failf "expected one parse-error, got %d findings" (List.length fs)

(* --- typed stage (cmt-based passes) ------------------------------- *)

module Typed = S3lint.Typed_rules

let typed_initialized = lazy (Typed.init ~dirs:[])

(* Typed fixtures go through a real compile: write the source to a
   temp dir, [ocamlc -c -bin-annot] it, lint the resulting cmt. This
   is exactly the artifact shape dune produces, without depending on
   internal typechecker entry points whose signatures move between
   compiler versions. *)
let lint_typed ?(kind = Rules.Lib) source =
  Lazy.force typed_initialized;
  let dir = Filename.temp_dir "s3lint_typed" "" in
  let src = Filename.concat dir "fixture.ml" in
  let oc = open_out src in
  output_string oc source;
  close_out oc;
  let cmd =
    Printf.sprintf "cd %s && ocamlc -c -bin-annot fixture.ml >/dev/null 2>&1"
      (Filename.quote dir)
  in
  if Sys.command cmd <> 0 then Alcotest.failf "typed fixture failed to compile:\n%s" source;
  let findings = Typed.lint_cmt ~kind ~source_root:dir (Filename.concat dir "fixture.cmt") in
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Sys.rmdir dir with Sys_error _ -> ());
  findings

let sweep_stub =
  "module Sweep = struct\n\
  \  let map n f = Array.init n f\n\
  \  let map_ranges n f = Array.init n (fun i -> f ~lo:i ~hi:(i + 1))\n\
   end\n"

let test_hashtbl_order_fires () =
  check_rules "cons accumulation" [ "hashtbl-order" ]
    (lint_typed "let f h = Hashtbl.fold (fun k _ acc -> k :: acc) h []");
  check_rules "float accumulation" [ "hashtbl-order" ]
    (lint_typed
       "let s (h : (int, float) Hashtbl.t) = Hashtbl.fold (fun _ v acc -> acc +. v) h 0.");
  check_rules "iter into a ref" [ "hashtbl-order" ]
    (lint_typed
       "let t h =\n\
        \  let sum = ref 0. in\n\
        \  Hashtbl.iter (fun _ (v : float) -> sum := !sum +. v) h;\n\
        \  !sum")

let test_hashtbl_order_quiet () =
  check_rules "re-sorted fold is sanctioned" []
    (lint_typed
       "let f (h : (int, int) Hashtbl.t) =\n\
        \  Hashtbl.fold (fun k _ acc -> k :: acc) h [] |> List.sort Int.compare");
  check_rules "bool fold with incidental float arith" []
    (lint_typed
       "let any (h : (int, float) Hashtbl.t) =\n\
        \  Hashtbl.fold (fun _ v acc -> acc || v > 0.5 +. 0.1) h false");
  check_rules "per-key replace is not accumulation" []
    (lint_typed
       "let bump src dst =\n\
        \  Hashtbl.iter (fun k (v : float) -> Hashtbl.replace dst k (v +. 1.)) src")

let test_hashtbl_order_suppressed () =
  check_rules "justified allow" []
    (lint_typed
       "let f h =\n\
        \  (* lint: allow hashtbl-order — consumer treats the result as a set *)\n\
        \  Hashtbl.fold (fun k _ acc -> k :: acc) h []");
  check_rules "tests are exempt" []
    (lint_typed ~kind:Rules.Test "let f h = Hashtbl.fold (fun k _ acc -> k :: acc) h []")

let test_poly_compare_fires () =
  check_rules "compare at float" [ "poly-compare" ]
    (lint_typed "let c (a : float) b = compare a b");
  check_rules "equality at float-containing tuple" [ "poly-compare" ]
    (lint_typed "let e (a : float * int) b = a = b");
  check_rules "compare at abstract type" [ "poly-compare" ]
    (lint_typed
       "module M : sig\n\
        \  type t\n\
        \  val v : t\n\
        end = struct\n\
        \  type t = float\n\
        \  let v = 1.\n\
        end\n\
        let q a = compare a M.v")

let test_poly_compare_quiet () =
  check_rules "int instantiation passes" []
    (lint_typed "let c (a : int) b = compare a b");
  check_rules "typed comparator passes" []
    (lint_typed "let c (a : float) b = Float.compare a b");
  check_rules "constant constructor is tag-only" []
    (lint_typed "let n (xs : float list) = xs = []")

(* A function generic in its argument: which compare runs is the
   caller's choice, so floats reach it unseen. *)
let test_poly_compare_type_var_fires () =
  check_rules "compare at a type variable" [ "poly-compare" ]
    (lint_typed "let c a b = compare a b");
  check_rules "compare passed as a value" [ "poly-compare" ]
    (lint_typed "let s xs = List.sort compare xs");
  check_rules "equality at a type variable" [ "poly-compare" ]
    (lint_typed "let e a b = a <> b");
  check_rules "key type left open by a key function" [ "poly-compare" ]
    (lint_typed
       "let sort ~key xs =\n\
        \  List.sort (fun a b -> compare (key a) (key b)) xs")

let test_poly_compare_type_var_quiet () =
  check_rules "comparator argument" []
    (lint_typed "let s cmp xs = List.sort cmp xs");
  check_rules "int instance inside a generic function" []
    (lint_typed "let c x = compare (fst x) 0");
  check_rules "constant constructor at a type variable" []
    (lint_typed "let n o = o = None");
  check_rules "tests are exempt" []
    (lint_typed ~kind:Rules.Test "let c a b = compare a b")

let test_poly_compare_suppressed () =
  check_rules "justified allow" []
    (lint_typed
       "let c (a : float) b =\n\
        \  (* lint: allow poly-compare — total order incl. NaN is exactly what we want *)\n\
        \  compare a b");
  (* A justified float-eq allowance covers the typed view of the same
     site — no double annotation. *)
  check_rules "float-eq allowance carries over" []
    (lint_typed
       "let f (x : float) = x = 1.0 (* lint: allow float-eq — exact sentinel round-trip *)")

(* Stdlib's min/max at float in lib/: a boxed call into the generic
   comparison. The message names the spelled-out rewrite. *)
let test_min_max_fires () =
  check_rules "min at float" [ "poly-compare" ] (lint_typed "let m (a : float) b = min a b");
  check_rules "max at a float-containing tuple" [ "poly-compare" ]
    (lint_typed "let m (a : float * int) b = max a b");
  check_rules "max passed as a value" [ "poly-compare" ]
    (lint_typed "let m (xs : float list) = List.fold_left max 0. xs");
  match lint_typed "let m (a : float) b = min a b" with
  | [ f ] ->
    let mentions sub =
      let n = String.length sub and m = String.length f.Rules.message in
      let rec at i = i + n <= m && (String.sub f.Rules.message i n = sub || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "names the rewrite" true (mentions "if a <= b then a else b")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_min_max_quiet () =
  check_rules "int instantiation passes" [] (lint_typed "let m (a : int) b = min a b");
  check_rules "spelled out" [] (lint_typed "let m (a : float) b = if a <= b then a else b");
  check_rules "Float.max is a different function" []
    (lint_typed "let m (a : float) b = Float.max a b");
  check_rules "a local min" []
    (lint_typed "let f (a : float) b =\n  let min x y = if x <= y then x else y in\n  min a b");
  check_rules "outside lib/" [] (lint_typed ~kind:Rules.Bin "let m (a : float) b = min a b");
  check_rules "tests are exempt" [] (lint_typed ~kind:Rules.Test "let m (a : float) b = max a b")

let test_min_max_suppressed () =
  check_rules "justified allow" []
    (lint_typed
       "let m (a : float) b =\n\
        \  (* lint: allow poly-compare — cold path, boxed call is fine here *)\n\
        \  min a b")

let test_domain_purity_fires () =
  check_rules "ref capture" [ "domain-purity" ]
    (lint_typed
       (sweep_stub
       ^ "let total = ref 0\nlet run () = Sweep.map 4 (fun i -> total := !total + i; !total)"));
  check_rules "hashtbl capture" [ "domain-purity" ]
    (lint_typed
       (sweep_stub
       ^ "let memo : (int, int) Hashtbl.t = Hashtbl.create 8\n\
          let run () = Sweep.map 4 (fun i -> Hashtbl.replace memo i i; i)"));
  check_rules "range spawn is a job boundary too" [ "domain-purity" ]
    (lint_typed
       (sweep_stub
       ^ "let hits = ref 0\n\
          let run () = Sweep.map_ranges 4 (fun ~lo ~hi -> incr hits; hi - lo)"))

let test_domain_purity_quiet () =
  check_rules "array result slots are the sanctioned merge" []
    (lint_typed
       (sweep_stub ^ "let out = Array.make 4 0\nlet run () = Sweep.map 4 (fun i -> out.(i) <- i)"));
  check_rules "immutable capture" []
    (lint_typed (sweep_stub ^ "let base = 10\nlet run () = Sweep.map 4 (fun i -> base + i)"));
  check_rules "named function is not analysed" []
    (lint_typed (sweep_stub ^ "let job i = i * 2\nlet run () = Sweep.map 4 job"))

let test_domain_purity_suppressed () =
  check_rules "justified allow" []
    (lint_typed
       (sweep_stub
       ^ "let total = ref 0\n\
          let run () =\n\
          \  (* lint: allow domain-purity — single-domain pool in this configuration *)\n\
          \  Sweep.map 4 (fun i -> total := !total + i; !total)"))

let test_nondet_source_fires () =
  check_rules "global Random" [ "nondet-source" ] (lint_typed "let f () = Random.int 10");
  check_rules "wall clock in lib" [ "nondet-source" ] (lint_typed "let f () = Sys.time ()")

let test_nondet_source_quiet () =
  check_rules "seeded state passes" []
    (lint_typed "let g st = Random.State.int st 10");
  check_rules "bench may time and draw" []
    (lint_typed ~kind:Rules.Bench "let f () = ignore (Sys.time ()); Random.int 10")

let test_nondet_source_suppressed () =
  check_rules "justified allow" []
    (lint_typed
       "let f () =\n\
        \  (* lint: allow nondet-source — diagnostic timer, excluded from fingerprints *)\n\
        \  Sys.time ()")

let test_cmt_error_reported () =
  Lazy.force typed_initialized;
  match Typed.lint_cmt "/nonexistent/fixture.cmt" with
  | [ f ] ->
    Alcotest.(check string) "rule" "cmt-error" f.Rules.rule;
    Alcotest.(check bool) "non-suppressible" false f.Rules.suppressible
  | fs -> Alcotest.failf "expected one cmt-error, got %d findings" (List.length fs)

(* --- typed stage: unused-export (a whole program) ----------------- *)

(* A fixture program: [(path, module, source)] files compiled in order
   with [ocamlc -c -bin-annot] at the repo-relative paths they name, so
   lib/, bin/ and test/ classify as in the real tree. A file given a
   module name ([Some "Storage__Matrix"] for lib/storage/matrix.ml) is
   compiled the way dune compiles a wrapped library's module: under
   that name, opening its wrapper. Returns the unused-export findings
   plus the syntactic stage's on every interface, which is where an
   allowance without a justification is reported. *)
let lint_program files =
  Lazy.force typed_initialized;
  let dir = Filename.temp_dir "s3lint_program" "" in
  let dirs =
    List.sort_uniq String.compare (List.map (fun (p, _, _) -> Filename.dirname p) files)
  in
  let run cmd =
    Sys.command (Printf.sprintf "cd %s && %s >/dev/null 2>&1" (Filename.quote dir) cmd) = 0
  in
  List.iter (fun d -> ignore (run ("mkdir -p " ^ Filename.quote d))) dirs;
  let includes = String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) dirs) in
  List.iter
    (fun (path, modname, source) ->
      let oc = open_out (Filename.concat dir path) in
      output_string oc source;
      close_out oc;
      let naming =
        match modname with
        | None -> ""
        | Some m ->
          let out =
            Filename.quote
              (Filename.concat (Filename.dirname path) (String.uncapitalize_ascii m))
          in
          let wrapper = String.sub m 0 (Option.get (String.index_opt m '_')) in
          if Filename.check_suffix path ".mli" then Printf.sprintf "-o %s.cmi" out
          else
            Printf.sprintf "-open %s -o %s.cmo%s" wrapper out
              (if List.exists (fun (q, _, _) -> q = path ^ "i") files then
                 Printf.sprintf " -cmi-file %s.cmi" out
               else "")
      in
      if
        not
          (run
             (Printf.sprintf "ocamlc -c -bin-annot -no-alias-deps -w -49 %s %s %s" includes
                naming (Filename.quote path)))
      then Alcotest.failf "fixture %s failed to compile:\n%s" path source)
    files;
  let typed = Typed.unused_exports ~source_root:dir (Typed.cmt_files_under dir) in
  let hygiene =
    List.concat_map
      (fun (path, _, _) ->
        if Filename.check_suffix path ".mli" then Rules.lint_file (Filename.concat dir path)
        else [])
      files
  in
  ignore (run ("rm -rf " ^ Filename.quote dir));
  typed @ hygiene

let messages findings = List.map (fun (f : Rules.finding) -> f.Rules.message) findings

let mentions needle (f : Rules.finding) =
  let n = String.length needle and m = String.length f.Rules.message in
  let rec at i = i + n <= m && (String.sub f.Rules.message i n = needle || at (i + 1)) in
  at 0

let check_unused msg expected findings =
  Alcotest.(check (list string)) msg expected
    (List.map
       (fun (f : Rules.finding) -> Printf.sprintf "%s:%d %s" f.Rules.file f.Rules.line f.Rules.rule)
       findings)

(* lib/a: [used] has a caller in bin/, [own] only in a.ml, [tested]
   only in test/. *)
let test_unused_export_values () =
  let findings =
    lint_program
      [ ("lib/a.mli", None, "val used : int -> int\nval own : int -> int\nval tested : int -> int\n");
        ("lib/a.ml", None, "let own x = x + 1\nlet used x = own x\nlet tested x = x\n");
        ("bin/main.ml", None, "let () = print_int (A.used 1)\n");
        ("test/t.ml", None, "let () = print_int (A.tested 1)\n")
      ]
  in
  check_unused "own-module and test-only values fire" [ "lib/a.mli:2 unused-export"; "lib/a.mli:3 unused-export" ]
    findings;
  Alcotest.(check bool) "own use named" true (List.exists (mentions "only its own module") findings);
  Alcotest.(check bool) "test-only named" true
    (List.exists (mentions "nothing outside test/") findings)

let test_unused_export_suppressed () =
  let program allowance =
    [ ("lib/a.mli", None, allowance ^ "\nval f : int -> int\n");
      ("lib/a.ml", None, "let f x = x\n")
    ]
  in
  check_rules "justified allowance" []
    (lint_program
       (program "(* lint: allow unused-export — README.md's example calls it *)"));
  check_rules "allowance without a justification" [ "unused-export"; "suppression" ]
    (lint_program (program "(* lint: allow unused-export *)"))

let optional_program ?(impl = "let f ?(x = 0) () = x\n") caller =
  lint_program
    [ ("lib/o.mli", None, "val f : ?x:int -> unit -> int\n");
      ("lib/o.ml", None, impl);
      ("bin/main.ml", None, caller)
    ]

let test_unused_export_optional () =
  (match optional_program "let () = print_int (O.f ())\n" with
  | [ f ] -> Alcotest.(check bool) "no caller passes ?x" true (mentions "?x" f)
  | fs -> Alcotest.failf "expected one finding, got: %s" (String.concat "; " (messages fs)));
  check_rules "a caller passes it" [] (optional_program "let () = print_int (O.f ~x:1 ())\n");
  check_rules "forwarding ?x counts"
    []
    (optional_program "let g ?x () = O.f ?x ()\nlet () = print_int (g ())\n");
  match
    optional_program ~impl:"let f ?x:_ () = 0\n" "let () = print_int (O.f ~x:1 ())\n"
  with
  | [ f ] -> Alcotest.(check bool) "bound as ?x:_" true (mentions "?x:_" f)
  | fs -> Alcotest.failf "expected one finding, got: %s" (String.concat "; " (messages fs))

(* Two wrapped libraries each with a module [Matrix]; bin/ reaches
   [Storage.Matrix.m] through a local alias, so only [Sim.Matrix.m]
   is unused. *)
let test_unused_export_same_basename () =
  let findings =
    lint_program
      [ ("lib/storage/storage.ml", None, "module Matrix = Storage__Matrix\n");
        ("lib/storage/matrix.mli", Some "Storage__Matrix", "val m : int -> int\n");
        ("lib/storage/matrix.ml", Some "Storage__Matrix", "let m x = x\n");
        ("lib/sim/sim.ml", None, "module Matrix = Sim__Matrix\n");
        ("lib/sim/matrix.mli", Some "Sim__Matrix", "val m : int -> int\n");
        ("lib/sim/matrix.ml", Some "Sim__Matrix", "let m x = x\n");
        ("bin/main.ml", None, "module M = Storage.Matrix\nlet () = print_int (M.m 1)\n")
      ]
  in
  check_unused "only the unused Matrix fires" [ "lib/sim/matrix.mli:1 unused-export" ] findings

(* --- machine-readable output -------------------------------------- *)

module Json = S3lint.Json
module Output = S3lint.Output

let finding_arb =
  let open QCheck in
  let byte_string = Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 20)) in
  let gen =
    Gen.map
      (fun (rule, file, line, col, message, suppressible) ->
        { Rules.rule; file; line; col; message; suppressible })
      Gen.(tup6 byte_string byte_string (int_bound 100000) (int_bound 500) byte_string bool)
  in
  let print (f : Rules.finding) =
    Printf.sprintf "{rule=%S; file=%S; line=%d; col=%d; message=%S; suppressible=%b}"
      f.Rules.rule f.Rules.file f.Rules.line f.Rules.col f.Rules.message f.Rules.suppressible
  in
  make ~print gen

let json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"--format json round-trips through its own parser"
    QCheck.(list_of_size Gen.(int_bound 8) finding_arb)
    (fun findings ->
      let doc = Output.to_json ~files:(List.length findings) findings in
      match Json.of_string (Json.to_string doc) with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok j -> (
        match Output.of_json j with
        | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
        | Ok back -> back = findings))

let test_baseline_diff () =
  let f ?(line = 1) rule message =
    { Rules.rule; file = "lib/x.ml"; line; col = 0; message; suppressible = true }
  in
  let baseline =
    [ f "poly-compare" "old"; f "hashtbl-order" "legacy"; f "poly-compare" "gone";
      f "poly-compare" "gone" ]
  in
  (* Same (rule, file, message) at a different line is absorbed; a new
     message and a second occurrence of an absorbed one are fresh;
     entries no finding matched are stale, each recorded copy of a
     key counted. *)
  let current =
    [ f ~line:40 "poly-compare" "old"; f "poly-compare" "new"; f ~line:9 "poly-compare" "old";
      f "poly-compare" "gone" ]
  in
  let fresh, matched, stale = Output.diff_against_baseline ~baseline current in
  let messages = List.map (fun (x : Rules.finding) -> x.Rules.message) in
  Alcotest.(check int) "two absorbed" 2 matched;
  Alcotest.(check (list string)) "fresh messages" [ "new"; "old" ] (messages fresh);
  Alcotest.(check (list string)) "stale messages" [ "legacy"; "gone" ] (messages stale)

let tests =
  ( "lint",
    [ tc "float-eq fires" `Quick test_float_eq_fires;
      tc "float-eq quiet" `Quick test_float_eq_quiet;
      tc "float-eq suppressed" `Quick test_float_eq_suppressed;
      tc "unsafe fires" `Quick test_unsafe_fires;
      tc "unsafe outside allowlist" `Quick test_unsafe_outside_allowlist;
      tc "unsafe suppressed" `Quick test_unsafe_suppressed;
      tc "unsafe primitive fires" `Quick test_unsafe_primitive;
      tc "unsafe primitive suppressed" `Quick test_unsafe_primitive_suppressed;
      tc "catch-all fires" `Quick test_catch_all_fires;
      tc "catch-all quiet" `Quick test_catch_all_quiet;
      tc "catch-all suppressed" `Quick test_catch_all_suppressed;
      tc "print fires" `Quick test_print_fires;
      tc "print scoping" `Quick test_print_scoping;
      tc "print suppressed" `Quick test_print_suppressed;
      tc "partial fires" `Quick test_partial_fires;
      tc "partial scoping" `Quick test_partial_scoping;
      tc "partial suppressed" `Quick test_partial_suppressed;
      tc "mli required" `Quick test_mli_required;
      tc "suppression needs justification" `Quick test_suppression_needs_justification;
      tc "suppression unknown rule" `Quick test_suppression_unknown_rule;
      tc "suppression scope tight" `Quick test_suppression_scope_is_tight;
      tc "suppression in string inert" `Quick test_suppression_in_string_is_inert;
      tc "parse error reported" `Quick test_parse_error_reported;
      tc "typed: hashtbl-order fires" `Quick test_hashtbl_order_fires;
      tc "typed: hashtbl-order quiet" `Quick test_hashtbl_order_quiet;
      tc "typed: hashtbl-order suppressed" `Quick test_hashtbl_order_suppressed;
      tc "typed: poly-compare fires" `Quick test_poly_compare_fires;
      tc "typed: poly-compare quiet" `Quick test_poly_compare_quiet;
      tc "typed: poly-compare at a type variable fires" `Quick test_poly_compare_type_var_fires;
      tc "typed: poly-compare at a type variable quiet" `Quick test_poly_compare_type_var_quiet;
      tc "typed: poly-compare suppressed" `Quick test_poly_compare_suppressed;
      tc "typed: min/max at float fires" `Quick test_min_max_fires;
      tc "typed: min/max at float quiet" `Quick test_min_max_quiet;
      tc "typed: min/max at float suppressed" `Quick test_min_max_suppressed;
      tc "typed: domain-purity fires" `Quick test_domain_purity_fires;
      tc "typed: domain-purity quiet" `Quick test_domain_purity_quiet;
      tc "typed: domain-purity suppressed" `Quick test_domain_purity_suppressed;
      tc "typed: nondet-source fires" `Quick test_nondet_source_fires;
      tc "typed: nondet-source quiet" `Quick test_nondet_source_quiet;
      tc "typed: nondet-source suppressed" `Quick test_nondet_source_suppressed;
      tc "typed: cmt error reported" `Quick test_cmt_error_reported;
      tc "typed: unused-export values" `Quick test_unused_export_values;
      tc "typed: unused-export suppressed" `Quick test_unused_export_suppressed;
      tc "typed: unused-export optional arguments" `Quick test_unused_export_optional;
      tc "typed: unused-export same basename" `Quick test_unused_export_same_basename;
      tc "output: baseline diff" `Quick test_baseline_diff;
      QCheck_alcotest.to_alcotest json_roundtrip
    ] )
