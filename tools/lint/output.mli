(** Machine-readable output and the baseline workflow.

    [--format json] emits a versioned document that {!of_json} parses
    back losslessly (property-tested in [test/test_lint.ml]); the same
    document doubles as the committed baseline format. [--format sarif]
    emits SARIF 2.1.0 for code-scanning upload.

    Baseline matching is a count-aware multiset diff on
    [(rule, file, message)] — deliberately line-insensitive, so moving
    code around a file does not churn the baseline. A *new* occurrence
    of a (rule, file, message) triple fails CI, and so does a *stale*
    baseline entry that no finding matches: left in place, it would
    excuse the next finding with the same message. *)

type format = Text | Json | Sarif

val format_of_string : string -> format option

val to_json : files:int -> Rules.finding list -> Json.t
(** The [--format json] document:
    [{"version":1,"files":N,"findings":[...]}]. *)

val of_json : Json.t -> (Rules.finding list, string) result
(** Parse a document produced by {!to_json} (or a committed baseline). *)

val to_sarif : Rules.finding list -> Json.t
(** SARIF 2.1.0 with rule metadata from {!Rules.rules}; columns are
    converted from 0- to 1-based. *)

val load_baseline : string -> (Rules.finding list, string) result
(** Read and parse a baseline file. *)

val diff_against_baseline :
  baseline:Rules.finding list ->
  Rules.finding list ->
  Rules.finding list * int * Rules.finding list
(** [(fresh, matched, stale)] — findings not covered by the baseline,
    the count of findings the baseline absorbed, and the baseline
    entries no finding matched, in baseline order. *)

val render :
  format:format ->
  files:int ->
  baselined:int ->
  stale:Rules.finding list ->
  Rules.finding list ->
  unit
(** Print findings to stdout in the chosen format, and each stale
    baseline entry on its own line: to stdout before the summary in
    text mode, to stderr after the document otherwise. [files] is the
    number of inputs scanned; [baselined] the count absorbed by the
    baseline (shown in text mode only). *)
