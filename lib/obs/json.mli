(** Minimal JSON reader/writer — just enough to load the documents this
    repository itself writes (solarstorm-bench/1 perf documents, chrome
    traces) and to parse/serve the simulation service's request and
    response bodies, without an external dependency.  Numbers are
    floats; [null] is what {!number_repr} (and {!Export.json_float})
    emits for non-finite values. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON value; rejects trailing content.  Errors carry the
    byte offset of the failure. *)

val parse_file : string -> (t, string) result
(** {!parse} the whole contents of a file; I/O failures become [Error]. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing fields or non-objects. *)

val number : t -> float option

val string_ : t -> string option

val array : t -> t list option

val escape : string -> string
(** Escape a string for embedding between JSON double quotes (control
    characters become [\uXXXX] escapes; the quotes themselves are not
    added).  A string with nothing to escape is returned as is, without
    a copy. *)

external format_float : string -> float -> string = "caml_format_float"
(** The C primitive that [Printf]'s [%f], [%e] and [%g] conversions end
    in: [format_float "%.17g" v] is byte-identical to
    [Printf.sprintf "%.17g" v] without the format interpreter.  Every
    float this repository spells on a hot path — JSON numbers, cache and
    plan keys, model names — goes through it. *)

val number_repr : float -> string
(** Canonical JSON spelling of a float: integral values < 10¹⁵ print as
    ["%.1f"], everything else as ["%.17g"] (both through
    {!format_float}); non-finite values become ["null"] (JSON has no
    literal for them). *)

val to_string : ?pretty:bool -> t -> string
(** Serialize.  Compact by default (no whitespace — the service's wire
    format); [~pretty:true] indents with two spaces for human eyes.
    Round-trips through {!parse} except for non-finite numbers, which
    serialize as [null]. *)
