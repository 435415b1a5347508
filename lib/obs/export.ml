(* The canonical escaping/float spelling lives in {!Json} (the writer
   side of the parser); these aliases keep the exporter's historical
   surface. *)
let json_escape = Json.escape

let json_float = Json.number_repr

let prom_float v =
  (* Prometheus exposition, unlike JSON, spells non-finite values out. *)
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Json.number_repr v

(* Events recorded outside any trace context keep the historical line
   shape; only traced events grow the extra field. *)
let trace_suffix (e : Span.event) =
  if e.Span.trace = "" then "" else Printf.sprintf ",\"trace\":\"%s\"" (json_escape e.Span.trace)

let jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (e : Span.event) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"%s\",\"ts_ns\":%Ld,\"depth\":%d,\"domain\":%d%s}\n"
           (json_escape e.Span.name)
           (match e.Span.phase with Span.Begin -> "B" | Span.End -> "E")
           e.Span.t_ns e.Span.depth e.Span.domain (trace_suffix e)))
    events;
  Buffer.contents buf

let chrome_trace ?(process_name = "solarstorm") events =
  (* Chrome/Perfetto trace-event JSON: duration events ("ph":"B"/"E"),
     one pid for the process, tid = recording domain id, timestamps in
     microseconds rebased to the earliest event so doubles keep
     nanosecond precision.  Metadata events name the process and each
     domain so trace viewers label the rows. *)
  let base =
    List.fold_left
      (fun acc (e : Span.event) -> if e.Span.t_ns < acc then e.Span.t_ns else acc)
      (match events with [] -> 0L | e :: _ -> e.Span.t_ns)
      events
  in
  let tids =
    List.sort_uniq compare (List.map (fun (e : Span.event) -> e.Span.domain) events)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  emit
    (Printf.sprintf
       "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
       (json_escape process_name));
  List.iter
    (fun tid ->
      emit
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
           tid tid))
    tids;
  List.iter
    (fun (e : Span.event) ->
      (* Traced events carry the request id as an arg, so Perfetto's
         search box ("args.trace:<id>" or plain <id>) jumps straight to
         one request's spans across every domain row. *)
      let args =
        if e.Span.trace = "" then ""
        else Printf.sprintf ",\"args\":{\"trace\":\"%s\"}" (json_escape e.Span.trace)
      in
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d%s}"
           (json_escape e.Span.name)
           (match e.Span.phase with Span.Begin -> "B" | Span.End -> "E")
           (Int64.to_float (Int64.sub e.Span.t_ns base) /. 1e3)
           e.Span.domain args))
    events;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

(* Prometheus metric names allow [a-zA-Z0-9_:]; map everything else to '_'. *)
let prometheus_name s =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = ':'
      then c
      else '_')
    s

let prometheus (snap : Metrics.snapshot) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let pname = prometheus_name name in
      match v with
      | Metrics.Counter n ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" pname pname n)
      | Metrics.Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s gauge\n%s %s\n" pname pname (prom_float g))
      | Metrics.Histogram { bounds; counts; sum; count } ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" pname);
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              cum := !cum + counts.(i);
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" pname (prom_float b) !cum))
            bounds;
          cum := !cum + counts.(Array.length counts - 1);
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" pname !cum);
          Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" pname (prom_float sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" pname count);
          (* Pre-computed SLO quantiles as a companion gauge family, so
             scrapers without histogram_quantile (and humans reading
             /metrics) get p50/p95/p99 directly.  Empty histograms skip
             the family — there is nothing to estimate. *)
          if count > 0 then begin
            Buffer.add_string buf (Printf.sprintf "# TYPE %s_quantile gauge\n" pname);
            List.iter
              (fun (label, q) ->
                match Metrics.quantile ~bounds ~counts q with
                | Some v ->
                    Buffer.add_string buf
                      (Printf.sprintf "%s_quantile{q=\"%s\"} %s\n" pname label (prom_float v))
                | None -> ())
              [ ("0.5", 0.5); ("0.95", 0.95); ("0.99", 0.99) ]
          end)
    snap;
  Buffer.contents buf

let json_of_value = function
  | Metrics.Counter n -> string_of_int n
  | Metrics.Gauge g -> json_float g
  | Metrics.Histogram { bounds; counts; sum; count } ->
      let buckets =
        List.init (Array.length counts) (fun i ->
            let le =
              if i < Array.length bounds then Printf.sprintf "%s" (json_float bounds.(i))
              else "\"+Inf\""
            in
            Printf.sprintf "{\"le\":%s,\"n\":%d}" le counts.(i))
      in
      Printf.sprintf "{\"count\":%d,\"sum\":%s,\"buckets\":[%s]}" count (json_float sum)
        (String.concat "," buckets)

let json_of_snapshot (snap : Metrics.snapshot) =
  "{"
  ^ String.concat ","
      (List.map (fun (name, v) -> Printf.sprintf "\"%s\":%s" (json_escape name) (json_of_value v)) snap)
  ^ "}"
