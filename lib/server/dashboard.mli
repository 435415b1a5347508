(** Pure renderer behind [GET /dashboard]: windowed series to a
    self-refreshing HTML page with inline SVG sparklines.  Zero
    client-side dependencies — polling is a [<meta refresh>], charts are
    [<svg><polyline>]. *)

val spark_svg : ?w:int -> ?h:int -> float list -> string
(** Inline SVG sparkline of the values, min–max scaled; a flat or
    single-point series renders as a midline, an empty one as an empty
    [<svg>]. *)

val render : step_s:float -> Monitor.window -> Obs.Alerts.status list -> string
(** The full page: the alert rules, then one row per metric of the
    window — its windowed rate, gauge value or p99, with that series as
    a sparkline.  All caller-supplied strings are HTML-escaped. *)
