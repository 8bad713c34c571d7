(** s3lint — repo-specific static analysis over the OCaml Parsetree.

    The planning core trades on exactly the patterns that rot silently:
    [Array.unsafe_*] hot loops in Reed-Solomon, warm-started simplex
    state, float-heavy LP math. The type system cannot enforce the
    epsilon discipline the LPST guarantees depend on, so this pass
    does, mechanically. Sources are parsed with compiler-libs (the
    in-tree 5.1 frontend, so anything dune accepts, s3lint accepts)
    and each rule walks the Parsetree — no typing information, so
    rules use syntactic float evidence (literals, [+.]-family
    operators, [float] annotations) rather than inferred types.

    Suppression is per-site and must carry a written justification:

    - [(* lint: allow <rule> — <justification> *)] on the same line as
      the finding or the line directly above it;
    - [[@lint.allow "<rule>" "<justification>"]] on an expression, or
      [[@@lint.allow ...]] on a [let] binding, scoping the allowance
      to that subtree;
    - [[@@@lint.allow "<rule>" "<justification>"]] at module level,
      scoping it to the whole file.

    A suppression whose justification is missing (or too short to say
    anything) does not suppress; it is itself reported under the
    [suppression] pseudo-rule. Findings marked non-suppressible (e.g.
    unsafe indexing outside the hot-path allowlist) ignore
    suppressions entirely. *)

type kind =
  | Lib  (** library code under [lib/] — strictest rule set *)
  | Bin  (** executables under [bin/] *)
  | Bench  (** benchmark harness under [bench/] *)
  | Test  (** test suites — partial stdlib accessors are tolerated *)
  | Other  (** anything else (tools, examples) — treated like [Bin] *)

type finding = {
  rule : string;  (** rule identifier, e.g. ["float-eq"] *)
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler diagnostics *)
  message : string;
  suppressible : bool;
      (** [false] for findings that a [lint: allow] annotation must not
          silence (allowlist violations, parse errors, missing mlis) *)
}

val rules : (string * string) list
(** [(name, one-line description)] for every rule, including the
    [suppression] and [parse-error] pseudo-rules. *)

val kind_of_path : string -> kind
(** Classify a repo-relative path by its first component
    ([lib/... -> Lib], [test/... -> Test], ...). *)

val hot_path_allowlist : string list
(** Module basenames (without extension) where unsafe indexing is
    permitted, given a justification: the measured hot loops. *)

val lint_source : kind:kind -> file:string -> string -> finding list
(** Parse [source] (an [.ml] implementation) and return the findings
    that survive suppression filtering, sorted by position. [file] is
    used for diagnostics and for the unsafe-indexing allowlist. *)

val lint_file : ?kind:kind -> string -> finding list
(** [lint_file path] reads and lints [path]. [.mli] files are parsed
    (a syntax check) and their [lint: allow] comments checked for a
    justification, but carry no expression rules. [kind] defaults to
    [kind_of_path path]. Unreadable or unparseable files yield a
    single non-suppressible [parse-error] finding. *)

type suppression
(** A parsed [lint: allow] annotation (comment or attribute form) with
    its rule, line range, and whether the justification has substance. *)

val suppressions_of_source : file:string -> string -> suppression list
(** All allowances in [source]: comment-form (lexically aware — string
    literals do not suppress) plus attribute-form when the file parses.
    Used by the typed stage, whose findings point back into the same
    source positions. *)

val filter_suppressed : finding list -> suppression list -> finding list
(** Drop suppressible findings covered by a justified allowance naming
    their rule. Emits no hygiene findings — the syntactic stage already
    reports malformed or unknown-rule allowances once per file. *)

val sort_findings : finding list -> finding list
(** Stable order: file, then line, then column. *)

val missing_mlis : exists:(string -> bool) -> string list -> finding list
(** [missing_mlis ~exists paths] applies the [mli-required] rule: every
    [Lib]-classified [.ml] in [paths] must have a sibling [.mli]
    according to [exists]. Pure in [exists] so tests need no
    filesystem. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line:col: [rule] message] — one line, compiler-style. *)
