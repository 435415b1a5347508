let healthz _req = Http.response ~status:200 "{\"status\":\"ok\"}\n"

(* Single source of truth for the binary's version: the CLI's
   [Cmd.info ~version] and the /statusz build block both read it. *)
let version = "1.0.0"

(* Process start, for /statusz uptime.  Module-initialisation time is
   close enough to exec time and needs no plumbing through Service. *)
let started_ns = Obs.Clock.monotonic ()

let statusz m _req =
  Obs.Resource.sample ();
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap with Some (Obs.Metrics.Counter n) -> n | _ -> 0
  in
  let gauge name =
    match List.assoc_opt name snap with Some (Obs.Metrics.Gauge v) -> v | _ -> 0.0
  in
  let open Obs.Json in
  let int n = Number (float_of_int n) in
  let latency =
    match List.assoc_opt "server.request.ms" snap with
    | Some (Obs.Metrics.Histogram { bounds; counts; sum; count }) ->
        let q p =
          match Obs.Metrics.quantile ~bounds ~counts p with
          | Some v -> Number v
          | None -> Null
        in
        Object
          [
            ("count", int count);
            ("sum_ms", Number sum);
            ("p50", q 0.5);
            ("p95", q 0.95);
            ("p99", q 0.99);
          ]
    | _ -> Object [ ("count", int 0); ("p50", Null); ("p95", Null); ("p99", Null) ]
  in
  (* One row per worker domain that has registered its counters this
     process (the pool registers them at boot), derived from the metric
     names themselves so this handler needs no channel to Service.  The
     rows' [requests] sum to [requests.total]: both counters are bumped
     at the same instruction in the worker. *)
  let workers =
    let worker_id name =
      match String.split_on_char '.' name with
      | [ "server"; "worker"; i; "requests" ] -> int_of_string_opt i
      | _ -> None
    in
    List.filter_map (fun (name, _) -> worker_id name) snap
    |> List.sort_uniq compare
    |> List.map (fun i ->
           Object
             [
               ("id", int i);
               ("requests", int (counter (Printf.sprintf "server.worker.%d.requests" i)));
               ("busy_ms", Number (gauge (Printf.sprintf "server.worker.%d.busy_ms" i)));
             ])
  in
  let alerts_summary =
    let a = m.Monitor.alerts in
    Object
      [
        ("rules", int (List.length (Obs.Alerts.rules a)));
        ("firing", int (Obs.Alerts.firing_count a));
      ]
  in
  let body =
    Object
      [
        ("status", String "ok");
        ( "build",
          Object
            [
              ("version", String version);
              ("ocaml", String Sys.ocaml_version);
              ("workers", int (int_of_float (gauge "server.workers")));
              ("sampler_step_s", Number m.Monitor.step_s);
            ] );
        ("alerts", alerts_summary);
        ( "uptime_s",
          Number (Int64.to_float (Int64.sub (Obs.Clock.monotonic ()) started_ns) /. 1e9)
        );
        ( "requests",
          Object
            [
              ("total", int (counter "server.requests"));
              ("2xx", int (counter "server.resp.2xx"));
              ("4xx", int (counter "server.resp.4xx"));
              ("5xx", int (counter "server.resp.5xx"));
              ("rejected_busy", int (counter "server.rejected.busy"));
            ] );
        ("latency_ms", latency);
        ("workers", Array workers);
        ( "sweep",
          Object
            [
              ("cells", int (counter "server.sweep.cells"));
              ("rows_streamed", int (counter "server.sweep.rows_streamed"));
              ("plans_compiled", int (counter "server.sweep.plans_compiled"));
            ] );
        ( "cache",
          Object
            [
              ("entries", int (Api.cache_length ()));
              ("capacity", int (Api.cache_capacity ()));
              ("hits", int (counter "server.cache.hits"));
              ("misses", int (counter "server.cache.misses"));
              ("evictions", int (counter "server.cache.evictions"));
            ] );
        ( "gc",
          Object
            [
              ("heap_words", Number (gauge "gc.heap_words"));
              ("minor_collections", Number (gauge "gc.minor_collections"));
              ("major_collections", Number (gauge "gc.major_collections"));
              ("compactions", Number (gauge "gc.compactions"));
            ] );
      ]
  in
  Http.response ~status:200 (Obs.Json.to_string body ^ "\n")

let metrics _req =
  (* Sample the GC/wall-clock gauges per scrape so /metrics reflects the
     process as of this request, exactly like the CLI dump paths do. *)
  Obs.Resource.sample ();
  Http.response
    ~content_type:"text/plain; version=0.0.4"
    ~status:200
    (Obs.Export.prometheus (Obs.Metrics.snapshot ()))

(* ---- windowed self-monitoring: /varz, /alertz, /dashboard ---- *)

let default_window_ns = 60_000_000_000L

let opt_num = function Some v -> Obs.Json.Number v | None -> Obs.Json.Null

(* /varz and /dashboard: parse [?window=], sample the ring on scrape (so
   both stay live without the background sampler; under it, an extra
   timestamped sample only refines the series), then answer from the
   one windowed query. *)
let windowed m req answer =
  match
    Option.fold ~none:(Ok default_window_ns) ~some:Obs.Alerts.parse_window
      (Http.query_param req "window")
  with
  | Error msg -> Http.response ~status:400 (Http.error_body msg)
  | Ok window_ns ->
      Obs.Resource.sample ();
      Monitor.sample_now m;
      answer (Monitor.window m ~window_ns)

(* /varz points are [t_rel_s, v] pairs with t relative to the newest
   sample (0 = now, older is negative): raw monotonic nanosecond stamps
   exceed the 2^53 float mantissa, so encoding them as JSON numbers
   would silently round. *)
let varz m req =
  windowed m req @@ fun w ->
  let open Obs.Json in
  let rel t = Int64.to_float (Int64.sub t w.Monitor.newest_ns) /. 1e9 in
  let points pts =
    Array
      (List.map
         (fun (p : Obs.Timeseries.point) -> Array [ Number (rel p.p_ts_ns); Number p.p_v ])
         pts)
  in
  let series (name, reading) =
    ( name,
      Object
        (match reading with
        | Monitor.Counter { rate_per_s; points = pts } ->
            [ ("kind", String "counter"); ("rate_per_s", opt_num rate_per_s);
              ("points", points pts) ]
        | Monitor.Gauge { value; points = pts } ->
            [ ("kind", String "gauge"); ("value", Number value); ("points", points pts) ]
        | Monitor.Histogram { count; quantiles } ->
            [ ("kind", String "histogram");
              ("count", opt_num (Option.map float_of_int count)) ]
            @ List.map (fun q -> (q.Monitor.label, opt_num q.Monitor.estimate)) quantiles
            @ List.map
                (fun q -> (q.Monitor.label ^ "_points", points q.Monitor.q_points))
                quantiles) )
  in
  let body =
    Object
      [
        ("window_s", Number (Int64.to_float w.Monitor.window_ns /. 1e9));
        ("step_s", Number m.Monitor.step_s);
        ("samples", Number (float_of_int w.Monitor.samples));
        ("series", Object (List.map series w.Monitor.series));
      ]
  in
  Http.response ~status:200 (to_string body ^ "\n")

let alertz m _req =
  let now_ns =
    match Obs.Timeseries.latest m.Monitor.ts with Some (t, _) -> t | None -> 0L
  in
  let open Obs.Json in
  let rule_json st =
    let open Obs.Alerts in
    let r = st.st_rule in
    Object
      [
        ("rule", String r.r_src);
        ("metric", String r.r_metric);
        ( "objective",
          String
            (Printf.sprintf "%s%s%g" (agg_to_string r.r_agg) (cmp_to_string r.r_cmp)
               r.r_threshold) );
        ("window_s", Number (window_s r));
        ("state", String (state_to_string st.st_state));
        ( "since_age_s",
          opt_num
            (Option.map
               (fun t -> Int64.to_float (Int64.sub now_ns t) /. 1e9)
               st.st_since_ns) );
        ("transitions", Number (float_of_int st.st_transitions));
        ("value", opt_num st.st_value);
        ("short_value", opt_num st.st_short_value);
      ]
  in
  let body =
    Object
      [
        ("firing", Number (float_of_int (Obs.Alerts.firing_count m.Monitor.alerts)));
        ("rules", Array (List.map rule_json (Obs.Alerts.statuses m.Monitor.alerts)));
      ]
  in
  Http.response ~status:200 (to_string body ^ "\n")

let dashboard m req =
  windowed m req @@ fun w ->
  Http.response
    ~content_type:"text/html; charset=utf-8"
    ~status:200
    (Dashboard.render ~step_s:m.Monitor.step_s w (Obs.Alerts.statuses m.Monitor.alerts))

(* One shape for the three analysis endpoints: decode the body over the
   defaults, derive the canonical key, and answer through the result
   cache.  [compute] runs under the "server.handler" span — a cache hit
   never opens it (nothing is computed). *)
let analysis ~base ~of_json ~key ~compute (req : Http.request) =
  match Api.params_of_body ~base ~of_json req.Http.body with
  | Error msg -> Http.response ~status:400 (Http.error_body msg)
  | Ok params -> (
      match
        Api.with_cache ~key:(key params) (fun () ->
            Obs.Span.with_ ~name:"server.handler" (fun () -> compute params))
      with
      | Ok body -> Http.response ~status:200 body
      | Error msg -> Http.response ~status:400 (Http.error_body msg))

let simulate =
  analysis ~base:Api.sim_defaults ~of_json:Api.sim_of_json ~key:Api.sim_key
    ~compute:(fun p -> Ok (Api.simulate_body p))

let scenario =
  analysis ~base:Api.scenario_defaults ~of_json:Api.scenario_of_json
    ~key:Api.scenario_key ~compute:Api.scenario_body

let countries =
  analysis ~base:Api.countries_defaults ~of_json:Api.countries_of_json
    ~key:Api.countries_key ~compute:(fun p -> Ok (Api.countries_body p))

(* ---- /sweep: grid in, chunked JSONL out ---- *)

(* Served-sweep counters, distinct from the engine's own [sweep.*]
   family: these count only what went over HTTP, so [solarstorm top]
   can show sweep throughput next to the request metrics. *)
let sw_cells = Obs.Metrics.counter "server.sweep.cells"
let sw_rows = Obs.Metrics.counter "server.sweep.rows_streamed"
let sw_plans = Obs.Metrics.counter "server.sweep.plans_compiled"

(* Grid validation happens here, before the reply is chosen, so a bad
   grid is still an ordinary fixed 400; only a valid grid starts a
   stream (whose status is already on the wire when cells execute).
   Streams bypass the result cache — a sweep's value is incremental
   delivery, and its cells already reuse plans and dataset builds. *)
let sweep (req : Http.request) =
  let bad msg = Router.Response (Http.response ~status:400 (Http.error_body msg)) in
  match
    Api.params_of_body ~base:[] ~of_json:(fun _ j -> Api.sweep_axes_of_json j)
      req.Http.body
  with
  | Error msg -> bad msg
  | Ok axes -> (
      match Stormsim.Sweep.expand axes with
      | Error msg -> bad msg
      | Ok cells ->
          Router.Stream
            {
              Router.s_status = 200;
              s_content_type = "application/x-ndjson";
              s_headers = [];
              s_body =
                (fun emit ->
                  let summary =
                    Obs.Span.with_ ~name:"server.sweep" @@ fun () ->
                    Stormsim.Sweep.run ~cells ~flush:(fun () -> emit "") ()
                      ~emit:(fun row ->
                        Obs.Metrics.incr sw_rows;
                        emit (Stormsim.Sweep.row_line row))
                  in
                  Obs.Metrics.add sw_cells summary.Stormsim.Sweep.cells;
                  Obs.Metrics.add sw_plans summary.Stormsim.Sweep.plans_compiled);
            })

let fixed handler req = Router.Response (handler req)

let routes () =
  [
    { Router.meth = Http.GET; route_path = "/healthz"; handler = fixed healthz };
    { Router.meth = Http.GET; route_path = "/metrics"; handler = fixed metrics };
    { Router.meth = Http.POST; route_path = "/simulate"; handler = fixed simulate };
    { Router.meth = Http.POST; route_path = "/scenario"; handler = fixed scenario };
    { Router.meth = Http.POST; route_path = "/countries"; handler = fixed countries };
    { Router.meth = Http.POST; route_path = "/sweep"; handler = sweep };
  ]

let monitor_routes m =
  [
    { Router.meth = Http.GET; route_path = "/statusz"; handler = fixed (statusz m) };
    { Router.meth = Http.GET; route_path = "/varz"; handler = fixed (varz m) };
    { Router.meth = Http.GET; route_path = "/alertz"; handler = fixed (alertz m) };
    { Router.meth = Http.GET; route_path = "/dashboard"; handler = fixed (dashboard m) };
  ]
