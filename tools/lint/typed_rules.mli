(** s3lint typed stage — determinism and domain-safety passes over the
    Typedtree, read from the [.cmt] artifacts of the dune build.

    Where the syntactic stage ({!Rules}) works from float *evidence*,
    these passes see inferred types, so [Array.sort compare a] on a
    [float array] is flagged while the same call at [int array] passes.
    Four passes (rule names registered in {!Rules.rules}):

    - [hashtbl-order]: [Hashtbl.fold]/[iter] whose body accumulates
      into an order-sensitive structure (list cons onto an accumulator,
      float [+.]/[*.], string [^], list [@], [Buffer.add_*]) without
      the result flowing straight into a sort ([List.sort (...)],
      [|> List.sort], [List.sort @@]). Hash-bucket order is not a
      stable public order; every such accumulation must be re-sorted by
      a total key or carry a justified allowance.
    - [poly-compare]: polymorphic [compare]/[=]/[<>]/[Hashtbl.hash]
      instantiated at a float-containing or abstract type. Comparisons
      against constant constructors ([xs = \[\]], [o <> None]) are
      tag-only and exempt. A justified [float-eq] allowance also covers
      the typed view of the same site.
    - [domain-purity]: inline closures passed to [Sweep.map]/
      [Sweep.map_list]/[Sweep.map_ranges] that capture mutable state (ref,
      [Hashtbl.t], [Bytes.t], [Buffer.t], [Queue.t], [Stack.t],
      [Atomic.t], or a record with mutable fields) from an enclosing
      scope — the static counterpart of the "self-contained jobs" rule
      (DESIGN.md §9). Arrays are exempt: per-index result slots are the
      sanctioned merge pattern. Named functions passed by identifier
      are not analysed.
    - [nondet-source]: [Random.*] global-generator calls outside
      [test/]/[bench/], and wall-clock reads ([Sys.time],
      [Unix.gettimeofday], [Unix.time]) inside [lib/].

    A fifth pass, [unused-export] ({!unused_exports}), reads the whole
    program at once instead of one [.cmt] at a time.

    Suppressions use the same [lint: allow <rule> — <why>] grammar as
    the syntactic stage and are resolved against the original source
    file recorded in the cmt. *)

val init : dirs:string list -> unit
(** Prepare the load path for environment reconstruction: [dirs] are
    the directories holding the cmt/cmi artifacts (dune's [.objs/byte]
    dirs). Must be called once before {!lint_cmt}; without the cmi
    files, nominal-type lookups degrade to structural checks (no
    findings are invented, some may be missed). *)

val lint_cmt : ?kind:Rules.kind -> ?source_root:string -> string -> Rules.finding list
(** Analyse one [.cmt] file. [kind] defaults to
    [Rules.kind_of_path] of the recorded source path; [source_root]
    (default ["."]) locates the source file for suppression handling.
    Interfaces and partial implementations yield no findings; an
    unreadable cmt yields one non-suppressible [cmt-error]. *)

val cmt_files_under : string -> string list
(** All [.cmt] and [.cmti] files under a directory (or the path itself
    if it is one), entering hidden directories — dune keeps artifacts
    under [.libname.objs/]. {!lint_cmt} finds nothing to check in a
    [.cmti]. *)

val unused_exports : ?source_root:string -> string list -> Rules.finding list
(** The [unused-export] pass over a whole program: [paths] are every
    [.cmt] and [.cmti] of it (see {!cmt_files_under}). References are
    resolved to compilation units through dune's [Lib__Module] wrapper
    and local [module X = ...] aliases. For each [val] of an interface
    under [lib/] it reports, at the [val]'s line:
    - a value that nothing outside its own module and [test/]
      references;
    - otherwise, an optional argument that no caller outside [test/]
      passes (forwarding [?x] counts), or that the implementation binds
      as [?x:_].

    Units under [test/] are never referrers. A justified [lint: allow
    unused-export] on the [val] line covers the value and its optional
    arguments. *)
