(* One server's self-monitoring state: an {!Obs.Timeseries} ring and an
   {!Obs.Alerts} engine, shared by that server's sampler domain and its
   /statusz, /varz, /alertz and /dashboard handlers.  Each
   [Service.create] makes its own, so two servers in one process keep
   separate rings and rule sets; only the metrics registry they sample
   is process-wide.

   [window] is the one windowed query over the ring: /varz encodes its
   result as JSON and /dashboard renders it as HTML. *)

type t = {
  ts : Obs.Timeseries.t;
  alerts : Obs.Alerts.t;
  step_s : float;
}

let create ?clock ?(step_s = 1.0) ?(retention = 600) ?(rules = []) () =
  let step_s = if step_s > 0.0 then step_s else 1.0 in
  let ts =
    Obs.Timeseries.create ?clock
      ~step_ns:(Int64.of_float (step_s *. 1e9))
      ~retention ()
  in
  { ts; alerts = Obs.Alerts.create rules; step_s }

(* One sampler tick: freeze a snapshot, then judge every rule against
   the updated ring. *)
let sample_now m =
  Obs.Timeseries.sample m.ts;
  Obs.Alerts.evaluate m.alerts m.ts

type quantile = {
  label : string;
  estimate : float option;
  q_points : Obs.Timeseries.point list;
}

type reading =
  | Counter of { rate_per_s : float option; points : Obs.Timeseries.point list }
  | Gauge of { value : float; points : Obs.Timeseries.point list }
  | Histogram of { count : int option; quantiles : quantile list }

type window = {
  window_ns : int64;
  samples : int;
  newest_ns : int64;
  series : (string * reading) list;
}

let quantiles = [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ]

let window m ~window_ns =
  let ts = m.ts in
  let reading name = function
    | Obs.Metrics.Counter _ ->
        Counter
          {
            rate_per_s = Obs.Timeseries.windowed_rate ts ~window_ns name;
            points = Obs.Timeseries.rate_series ts ~window_ns name;
          }
    | Obs.Metrics.Gauge value ->
        Gauge { value; points = Obs.Timeseries.gauge_series ts ~window_ns name }
    | Obs.Metrics.Histogram _ ->
        Histogram
          {
            count = Obs.Timeseries.windowed_count ts ~window_ns name;
            quantiles =
              List.map
                (fun (label, q) ->
                  {
                    label;
                    estimate = Obs.Timeseries.windowed_quantile ts ~window_ns ~q name;
                    q_points = Obs.Timeseries.quantile_series ts ~window_ns ~q name;
                  })
                quantiles;
          }
  in
  let newest_ns, snap =
    match Obs.Timeseries.latest ts with Some latest -> latest | None -> (0L, [])
  in
  let series = List.map (fun (name, v) -> (name, reading name v)) snap in
  { window_ns; samples = Obs.Timeseries.length ts; newest_ns; series }
