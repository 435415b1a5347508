(** Machine-readable exporters.

    - [jsonl]: one JSON object per span event
      ([{"name":…,"ph":"B"|"E","ts_ns":…,"depth":…,"domain":…}]),
      suitable for line-oriented trace tooling; events recorded under a
      {!Span.with_trace} context gain a trailing ["trace"] field;
    - [chrome_trace]: Chrome/Perfetto trace-event JSON (duration events,
      [pid] 1, [tid] = recording domain id), what [solarstorm --profile]
      writes; traced events carry [{"args":{"trace":…}}] so Perfetto's
      search finds one request's spans by its [X-Trace-Id];
    - [prometheus]: Prometheus text exposition format (names are
      sanitised, histograms expand to cumulative [_bucket]/[_sum]/[_count]
      series plus a [_quantile{q=…}] gauge family with estimated
      p50/p95/p99 when non-empty, non-finite values spelled
      [NaN]/[+Inf]/[-Inf]);
    - [json_of_snapshot]: a single JSON object keyed by metric name, the
      form embedded in [bench --json] documents.

    The human-readable table rendering lives in [Report.Obs_report] so
    this library stays dependency-free. *)

val jsonl : Span.event list -> string

val chrome_trace : Span.event list -> string
(** Trace-event JSON document ([{"traceEvents":[…]}]) for process
    ["solarstorm"].  Timestamps are microseconds rebased to the earliest
    event; every distinct domain id gets a [thread_name] metadata record
    ["domain N"].  Load in
    [ui.perfetto.dev] or [chrome://tracing]. *)

val prometheus : Metrics.snapshot -> string
(** Floats spell as {!Json.number_repr} does, except that non-finite
    values spell out as ["NaN"], ["+Inf"] and ["-Inf"], as the
    exposition format requires. *)

val json_of_snapshot : Metrics.snapshot -> string
