(** ASCII table rendering for the benchmark harness and examples, and
    the number formats they and the CLI spec printers share.

    Keeps the report code free of manual column-width bookkeeping: give
    a header row and data rows, get back an aligned monospace table like
    the rows the paper reports. *)

type align = Left | Right

val render : ?align:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays the table out with one space of padding
    and a rule under the header. All rows must have the same arity as
    the header. [align] gives per-column alignment (default:
    right-aligned for every column, which suits numeric tables). *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point rendering used throughout the harness (default 2
    decimals). A magnitude of [1e15] or more, where fixed point would
    print every integer digit, is rendered in exponent form with the
    same number of decimals instead: [fmt_float ~decimals:1 3.5e305 =
    "3.5e+305"]. *)

val fmt_exact : float -> string
(** [fmt_exact x] is the shortest of [%.15g] and [%.17g] that parses
    back to exactly [x], so a spec's [to_string] round-trips through
    its [of_string]. *)

val fmt_pct : float -> string
(** [fmt_pct x] renders the ratio [x] as a percentage with one
    decimal, e.g. [fmt_pct 0.128 = "12.8%"]. *)
