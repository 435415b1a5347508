(** The service's endpoints, as {!Router} route tables: {!routes} for
    the stateless ones, {!monitor_routes} for the four that read one
    server's {!Monitor}.

    - [GET /healthz] — liveness: [{"status":"ok"}];
    - [GET /metrics] — live Prometheus exposition of the Obs registry
      (resource gauges sampled per scrape), with
      [Content-Type: text/plain; version=0.0.4];
    - [GET /statusz] — one JSON health document: a [build] block
      (version, OCaml version, worker count, sampler step), an [alerts]
      summary (rule/firing counts), uptime, request counts by status
      class, request-latency p50/p95/p99 (estimated from the
      [server.request.ms] histogram), result-cache occupancy and GC
      gauges;
    - [GET /varz?window=60s] — {!Monitor.window} as JSON: per metric,
      its kind, its windowed counter rate, gauge value or histogram
      p50/p95/p99, and its series as [[t_rel_s, v]] points (t relative
      to the newest sample); samples the ring on scrape, so it works
      without the background sampler too.  Bad [window] → 400;
    - [GET /alertz] — SLO rule states (ok/firing, last measurement,
      transition count, state age);
    - [GET /dashboard?window=60s] — the same {!Monitor.window} rendered
      by {!Dashboard} as an HTML/SVG sparkline page, zero client-side
      dependencies;
    - [POST /simulate], [POST /scenario], [POST /countries] — run (or
      serve from the result cache) the corresponding analysis; the JSON
      request body overlays {!Api} defaults, and the response body is
      byte-identical to the CLI's [--json] output for the same
      parameters;
    - [POST /sweep] — expand a JSON grid object
      ({!Api.sweep_axes_of_json}) into cells and stream one JSONL row
      per cell as a chunked response ({!Stormsim.Sweep}), byte-identical
      to [solarstorm sweep] for the same grid.  Malformed grids are
      fixed 400s; [/statusz] carries the served-sweep counters
      ([server.sweep.cells], [server.sweep.rows_streamed],
      [server.sweep.plans_compiled]).

    Each analysis POST handler runs under a ["server.handler"] span and
    goes through {!Api.with_cache}, so repeated identical requests are
    answered from the LRU without re-running trials; [/sweep] runs
    under ["server.sweep"] and bypasses the result cache. *)

val version : string
(** The binary's version string, shared by the CLI [--version] and the
    /statusz build block. *)

val routes : unit -> Router.route list
(** [/healthz], [/metrics], [/simulate], [/scenario], [/countries] and
    [/sweep]: they read only process-wide state (the metrics registry,
    the result cache). *)

val monitor_routes : Monitor.t -> Router.route list
(** [/statusz], [/varz], [/alertz] and [/dashboard] over one server's
    monitor. *)
