(** Human-readable rendering of {!Obs} metric snapshots and span traces,
    using the shared {!Table} layout.  This is the [--metrics -] output of
    the CLI; the machine formats live in [Obs.Export]. *)

val render : ?events:Obs.Span.event list -> Obs.Metrics.snapshot -> string
(** Full summary: metrics table plus (when [events] pair up into spans) a
    span table and a dropped-events note. *)
