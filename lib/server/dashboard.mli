(** Pure renderer behind [GET /dashboard]: windowed series to a
    self-refreshing HTML page with inline SVG sparklines.  Zero
    client-side dependencies — polling is a [<meta refresh>], charts are
    [<svg><polyline>]. *)

val render : step_s:float -> Monitor.window -> Obs.Alerts.status list -> string
(** The full page: the alert rules, then one row per metric of the
    window — its windowed rate, gauge value or p99, with that series as
    a sparkline.  All caller-supplied strings are HTML-escaped. *)
