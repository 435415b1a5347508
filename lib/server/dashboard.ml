(* The /dashboard page: server-rendered HTML with inline SVG
   sparklines, zero client-side dependencies.  A browser pointed at a
   running server gets a self-refreshing view of the same windowed
   series /varz serves as JSON — the <meta refresh> does the polling,
   so no JavaScript is needed at all.

   Rendering is split pure-side: [spark_svg] and [render] map plain
   data to markup, so tests can assert on the output without a socket.
   [render] draws one row per metric of a {!Monitor.window}: the
   windowed rate, the gauge value or the p99, with its series. *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  buf

let escape s = Buffer.contents (html_escape s)

(* An inline SVG polyline over [vs], scaled to fit; flat series render
   as a midline instead of dividing by zero. *)
let spark_svg ?(w = 240) ?(h = 36) vs =
  match vs with
  | [] -> Printf.sprintf "<svg width=\"%d\" height=\"%d\"></svg>" w h
  | vs ->
      let lo = List.fold_left min infinity vs in
      let hi = List.fold_left max neg_infinity vs in
      let span = hi -. lo in
      let n = List.length vs in
      let pad = 2.0 in
      let x i =
        if n = 1 then float_of_int w /. 2.0
        else pad +. (float_of_int i /. float_of_int (n - 1) *. (float_of_int w -. (2.0 *. pad)))
      in
      let y v =
        if span <= 0.0 then float_of_int h /. 2.0
        else
          pad +. ((1.0 -. ((v -. lo) /. span)) *. (float_of_int h -. (2.0 *. pad)))
      in
      let pts =
        List.mapi (fun i v -> Printf.sprintf "%.1f,%.1f" (x i) (y v)) vs
        |> String.concat " "
      in
      Printf.sprintf
        "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\"><polyline points=\"%s\" \
         fill=\"none\" stroke=\"#2b6cb0\" stroke-width=\"1.5\"/></svg>"
        w h w h pts

let render ~step_s (w : Monitor.window) (alerts : Obs.Alerts.status list) =
  let fmt v = Printf.sprintf "%.4g" v in
  let fmt_opt = function Some v -> fmt v | None -> "-" in
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "<!DOCTYPE html><html><head><meta charset=\"utf-8\">";
  (* Refresh at the sampling cadence, floored at 1 s so a fast test
     sampler does not make browsers thrash. *)
  let refresh = int_of_float (Float.max 1.0 step_s) in
  add (Printf.sprintf "<meta http-equiv=\"refresh\" content=\"%d\">" refresh);
  add "<title>solarstorm dashboard</title><style>";
  add
    "body{font-family:monospace;margin:1.5em;background:#fafafa;color:#222}\
     table{border-collapse:collapse}td,th{padding:4px 12px;text-align:left;\
     border-bottom:1px solid #ddd}h1{font-size:1.2em}.firing{color:#c53030;\
     font-weight:bold}.ok{color:#2f855a}.muted{color:#888}";
  add "</style></head><body>";
  add "<h1>solarstorm self-monitoring</h1>";
  add
    (Printf.sprintf
       "<p class=\"muted\">window %gs &middot; step %gs &middot; %d samples</p>"
       (Int64.to_float w.Monitor.window_ns /. 1e9)
       step_s w.Monitor.samples);
  if alerts <> [] then begin
    add "<h2>alerts</h2><table><tr><th>rule</th><th>state</th><th>value</th></tr>";
    List.iter
      (fun (st : Obs.Alerts.status) ->
        let state = escape (Obs.Alerts.state_to_string st.st_state) in
        add
          (Printf.sprintf "<tr><td>%s</td><td class=\"%s\">%s</td><td>%s</td></tr>"
             (escape st.st_rule.r_src) state state
             (escape (fmt_opt st.st_value))))
      alerts;
    add "</table>"
  end;
  add "<h2>series</h2><table><tr><th>metric</th><th>kind</th><th>now</th><th></th></tr>";
  if w.Monitor.series = [] then
    add "<tr><td colspan=\"4\" class=\"muted\">no samples yet</td></tr>";
  List.iter
    (fun (name, reading) ->
      let kind, value, points =
        match reading with
        | Monitor.Counter { rate_per_s; points } ->
            ("rate", Option.fold ~none:"-" ~some:(fun r -> fmt r ^ "/s") rate_per_s, points)
        | Monitor.Gauge { value; points } -> ("gauge", fmt value, points)
        | Monitor.Histogram { quantiles; _ } ->
            let p99 = List.find (fun q -> q.Monitor.label = "p99") quantiles in
            ("p99", fmt_opt p99.Monitor.estimate, p99.Monitor.q_points)
      in
      add
        (Printf.sprintf "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>"
           (escape name) (escape kind) (escape value)
           (spark_svg (List.map (fun (p : Obs.Timeseries.point) -> p.p_v) points))))
    w.Monitor.series;
  add "</table></body></html>";
  Buffer.contents buf
