(** Leveled, structured JSONL logging.

    [info event fields] (and likewise {!warn}, {!error}) emits
    one compact JSON object per line:

    {v {"ts_ns":…,"level":"info","event":"http.access","trace":"…",…} v}

    Off by default and independent of the metrics/span switch (the
    [--log] CLI flag enables it); a disabled call costs one branch.
    Clock and sink are injectable like {!Progress}'s; the default sink
    is stderr, so stdout stays byte-identical with logging on.

    When a trace context is active ({!Span.with_trace}) every line
    automatically carries it as a ["trace"] field, correlating logs with
    that request's spans and its [X-Trace-Id] response header.

    Field values are rendered with {!Json.to_string}, except integral
    finite numbers, which print as plain integers (["status":200]). *)

type level = Debug | Info | Warn | Error

val enable : unit -> unit
val disable : unit -> unit

val set_level : level -> unit
(** Minimum level that is emitted (default [Debug] — everything). *)

val set_clock : Clock.t -> unit
(** Timestamp source for [ts_ns] (default {!Clock.monotonic}). *)

val set_sink : (string -> unit) -> unit
(** Where complete lines go (default: stderr, flushed per line).  Calls
    are serialized under an internal mutex so lines never interleave. *)

val info : string -> (string * Json.t) list -> unit
(** [event] names the line, [fields] are appended in order.  No-op when
    disabled or below {!set_level}; the same holds for the other two
    levels. *)

val warn : string -> (string * Json.t) list -> unit
val error : string -> (string * Json.t) list -> unit
