(** The comma-separated [KEY=VALUE] specs of the CLI's [--watchdog],
    [--retry] and [--detect] flags, parsed by one loop.

    A spec is a list of items separated by [,]. Blank items are
    skipped, [default] resets every key to the default config, and any
    other item is [KEY=VALUE]: the key is matched case-insensitively
    against each key's name and aliases, and the value is parsed as the
    key's type and applied to the config built so far. Errors are one
    line, prefixed with the spec's name. *)

type 'c key
(** A key that sets part of a config of type ['c]. *)

val float : ?aliases:string list -> string -> ('c -> float -> 'c) -> 'c key
(** [float name set]: a key whose value is a float
    ([float_of_string]); [aliases] are further names the key answers
    to. *)

val int : ?aliases:string list -> string -> ('c -> int -> 'c) -> 'c key
(** [int name set]: a key whose value is an integer. *)

val bool : string -> ('c -> bool -> 'c) -> 'c key
(** [bool name set]: a key whose value is [true] or [false], in any
    case. *)

val parse :
  what:string -> default:'c -> finish:('c -> 'c) -> 'c key list -> string -> ('c, string) result
(** [parse ~what ~default ~finish keys spec] applies the spec's items
    in order to [default] and returns [finish] of the result; [finish]
    validates, and its [Invalid_argument] message becomes the [Error]
    as it is. Other errors read ["WHAT ..."]: an item without [=], an
    unknown key (both list the keys' names in order), or a value of
    the wrong type. *)
