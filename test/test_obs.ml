(* Tests for the Obs observability layer: metric arithmetic, histogram
   bucket boundaries, span nesting under a fake clock, exporter golden
   output, and the no-interference guarantee (instrumented Monte-Carlo
   runs are bit-identical to uninstrumented ones). *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* Every test starts from a clean, enabled slate and leaves the layer off
   so test order never matters. *)
let with_obs_enabled f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Obs.Span.set_clock Obs.Clock.monotonic)
    f

(* --- metric arithmetic --- *)

let test_counter_arithmetic () =
  with_obs_enabled @@ fun () ->
  let c = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr c;
  Obs.Metrics.add c 40;
  (match List.assoc "test.counter" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Counter n -> Alcotest.(check int) "counter" 42 n
  | _ -> Alcotest.fail "not a counter");
  Obs.Metrics.reset ();
  match List.assoc "test.counter" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Counter n -> Alcotest.(check int) "reset" 0 n
  | _ -> Alcotest.fail "not a counter"

let test_shard_dispersion () =
  (* Counter shards are picked by a multiplicative hash of the domain id.
     The old pick was the raw id masked, so the acceptor (domain 0), the
     first server worker (domain 1) and the pool workers all collided on
     the same few adjacent shards.  Pin the properties the hash must
     keep: in-range, deterministic, and sequential ids spread over most
     of the shard space. *)
  let shards = List.init 64 Obs.Metrics.shard_of_id in
  List.iter
    (fun s -> Alcotest.(check bool) "in range" true (s >= 0 && s < 8))
    shards;
  Alcotest.(check int) "deterministic" (Obs.Metrics.shard_of_id 5)
    (Obs.Metrics.shard_of_id 5);
  let distinct = List.length (List.sort_uniq Int.compare shards) in
  Alcotest.(check bool) "64 sequential ids cover most shards" true (distinct >= 6)

let test_counter_sharded_contention () =
  (* The exactness contract under real contention: four domains hammer
     one counter concurrently; the snapshot total must be the exact sum,
     not approximately it. *)
  with_obs_enabled @@ fun () ->
  let c = Obs.Metrics.counter "test.contended" in
  let per_domain = 10_000 and domains = 4 in
  let workers =
    Array.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Metrics.incr c
            done))
  in
  Array.iter Domain.join workers;
  match List.assoc "test.contended" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Counter n ->
      Alcotest.(check int) "exact under contention" (per_domain * domains) n
  | _ -> Alcotest.fail "not a counter"

let test_counter_disabled_is_noop () =
  Obs.reset ();
  Obs.disable ();
  let c = Obs.Metrics.counter "test.disabled" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  match List.assoc "test.disabled" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Counter n -> Alcotest.(check int) "stays zero" 0 n
  | _ -> Alcotest.fail "not a counter"

let test_gauge_set () =
  with_obs_enabled @@ fun () ->
  let g = Obs.Metrics.gauge "test.gauge" in
  Obs.Metrics.set g 1.5;
  Obs.Metrics.set g 2.5;
  match List.assoc "test.gauge" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Gauge v -> Alcotest.(check (float 1e-9)) "last write wins" 2.5 v
  | _ -> Alcotest.fail "not a gauge"

let test_kind_clash_rejected () =
  with_obs_enabled @@ fun () ->
  let (_ : Obs.Metrics.counter) = Obs.Metrics.counter "test.clash" in
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Obs.Metrics: test.clash registered with another kind") (fun () ->
      ignore (Obs.Metrics.gauge "test.clash"))

(* --- histogram buckets --- *)

let test_histogram_bucket_boundaries () =
  with_obs_enabled @@ fun () ->
  let h = Obs.Metrics.histogram "test.hist" ~buckets:[| 1.0; 10.0; 100.0 |] in
  (* On-boundary values land in the bucket they bound (le semantics). *)
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 1.0001; 10.0; 99.9; 100.0; 100.1; 1e9 ];
  match List.assoc "test.hist" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Histogram { bounds; counts; sum; count } ->
      Alcotest.(check (array (float 1e-9))) "bounds" [| 1.0; 10.0; 100.0 |] bounds;
      Alcotest.(check (array int)) "counts" [| 2; 2; 2; 2 |] counts;
      Alcotest.(check int) "count" 8 count;
      Alcotest.(check (float 1e-3)) "sum" (0.5 +. 1.0 +. 1.0001 +. 10.0 +. 99.9 +. 100.0 +. 100.1 +. 1e9) sum
  | _ -> Alcotest.fail "not a histogram"

let test_histogram_rejects_bad_buckets () =
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Obs.Metrics.histogram: bucket bounds must increase strictly")
    (fun () -> ignore (Obs.Metrics.histogram "test.hist.bad" ~buckets:[| 1.0; 1.0 |]))

(* --- histogram quantile estimation --- *)

let test_quantile_empty_is_none () =
  let bounds = [| 1.0; 2.0 |] and counts = [| 0; 0; 0 |] in
  List.iter
    (fun q ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "empty q=%g" q) None
        (Obs.Metrics.quantile ~bounds ~counts q))
    [ 0.0; 0.5; 1.0 ]

let test_quantile_single_observation () =
  (* One observation in the (50, 100] bucket: every quantile interpolates
     inside that bucket under the uniform-within-bucket assumption. *)
  let bounds = [| 25.0; 50.0; 100.0 |] and counts = [| 0; 0; 1; 0 |] in
  let q v = Obs.Metrics.quantile ~bounds ~counts v in
  Alcotest.(check (option (float 1e-9))) "p50 mid-bucket" (Some 75.0) (q 0.5);
  Alcotest.(check (option (float 1e-9))) "p0 bucket floor" (Some 50.0) (q 0.0);
  Alcotest.(check (option (float 1e-9))) "p100 bucket top" (Some 100.0) (q 1.0)

let test_quantile_overflow_collapses () =
  (* Everything past the last finite bound: the histogram knows nothing
     about the tail, so the estimate is the last bound itself. *)
  let bounds = [| 1.0; 2.0 |] and counts = [| 0; 0; 5 |] in
  List.iter
    (fun v ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "overflow q=%g" v) (Some 2.0)
        (Obs.Metrics.quantile ~bounds ~counts v))
    [ 0.5; 0.99 ]

let test_quantile_interpolates_within_bucket () =
  (* First bucket interpolates from 0 (latency histograms have no
     negative observations)... *)
  let q1 = Obs.Metrics.quantile ~bounds:[| 10.0 |] ~counts:[| 4; 0 |] in
  Alcotest.(check (option (float 1e-9))) "first bucket p50" (Some 5.0) (q1 0.5);
  Alcotest.(check (option (float 1e-9))) "first bucket p25" (Some 2.5) (q1 0.25);
  (* ... later buckets from their lower bound. *)
  let q2 = Obs.Metrics.quantile ~bounds:[| 10.0; 20.0 |] ~counts:[| 2; 2; 0 |] in
  Alcotest.(check (option (float 1e-9))) "middle bucket p75" (Some 15.0) (q2 0.75);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Obs.Metrics.quantile: q outside [0, 1]") (fun () ->
      ignore (q2 1.5));
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Obs.Metrics.quantile: counts length must be bounds length + 1")
    (fun () -> ignore (Obs.Metrics.quantile ~bounds:[| 1.0 |] ~counts:[| 1 |] 0.5))

let exact_quantile sorted q =
  (* Linear interpolation over n-1 intervals — the loadgen convention. *)
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let test_quantile_tracks_exact_on_sample () =
  with_obs_enabled @@ fun () ->
  (* A seeded LCG sample in [0, 100): the bucket estimate must stay
     within one bucket width of the exact sample quantile. *)
  let bounds = Array.init 20 (fun i -> 5.0 *. float_of_int (i + 1)) in
  let h = Obs.Metrics.histogram "q.sample" ~buckets:bounds in
  let state = ref 12345 in
  let sample =
    Array.init 200 (fun _ ->
        state := ((!state * 1103515245) + 12347) land 0x3FFFFFFF;
        float_of_int (!state mod 10_000) /. 100.0)
  in
  Array.iter (Obs.Metrics.observe h) sample;
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  match List.assoc "q.sample" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Histogram { bounds; counts; _ } ->
      List.iter
        (fun q ->
          match Obs.Metrics.quantile ~bounds ~counts q with
          | None -> Alcotest.fail "estimate missing"
          | Some est ->
              let exact = exact_quantile sorted q in
              Alcotest.(check bool)
                (Printf.sprintf "q=%g est %.2f vs exact %.2f" q est exact)
                true
                (Float.abs (est -. exact) <= 5.0))
        [ 0.5; 0.9; 0.95; 0.99 ]
  | _ -> Alcotest.fail "not a histogram"

(* --- structured log --- *)

let with_log_captured f =
  let buf = Buffer.create 256 in
  Obs.Log.enable ();
  Obs.Log.set_sink (Buffer.add_string buf);
  Obs.Log.set_clock (Obs.Clock.fake ~start:42L ~step:1L ());
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.disable ();
      Obs.Log.set_level Obs.Log.Debug;
      Obs.Log.set_clock Obs.Clock.monotonic;
      Obs.Log.set_sink (fun s ->
          output_string stderr s;
          flush stderr))
    (fun () -> f buf)

let test_log_line_golden () =
  with_log_captured @@ fun buf ->
  Obs.Log.info "http.access"
    [
      ("method", Obs.Json.String "GET");
      ("status", Obs.Json.Number 200.0);
      ("dur_ms", Obs.Json.Number 1.5);
    ];
  let line = Buffer.contents buf in
  Alcotest.(check string) "exact line"
    "{\"ts_ns\":42,\"level\":\"info\",\"event\":\"http.access\",\"method\":\"GET\",\"status\":200,\"dur_ms\":1.5}\n"
    line;
  (* Every emitted line must parse back with the JSON reader. *)
  match Obs.Json.parse (String.trim line) with
  | Error e -> Alcotest.fail ("unparseable log line: " ^ e)
  | Ok doc ->
      Alcotest.(check (option string)) "event" (Some "http.access")
        (Option.bind (Obs.Json.member "event" doc) Obs.Json.string_);
      Alcotest.(check (option (float 1e-9))) "status" (Some 200.0)
        (Option.bind (Obs.Json.member "status" doc) Obs.Json.number)

let test_log_disabled_is_silent () =
  let buf = Buffer.create 16 in
  Obs.Log.disable ();
  Obs.Log.set_sink (Buffer.add_string buf);
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_sink (fun s ->
          output_string stderr s;
          flush stderr))
    (fun () ->
      Obs.Log.info "hidden" [];
      Obs.Log.error "also hidden" [ ("k", Obs.Json.Null) ];
      Alcotest.(check string) "no output" "" (Buffer.contents buf))

let test_log_level_filter () =
  with_log_captured @@ fun buf ->
  Obs.Log.set_level Obs.Log.Warn;
  Obs.Log.info "i" [];
  Obs.Log.warn "w" [];
  Obs.Log.error "e" [];
  let out = Buffer.contents buf in
  Alcotest.(check bool) "info dropped" false (contains out "\"event\":\"i\"");
  Alcotest.(check bool) "warn kept" true (contains out "\"level\":\"warn\",\"event\":\"w\"");
  Alcotest.(check bool) "error kept" true (contains out "\"level\":\"error\",\"event\":\"e\"")

let test_log_carries_trace_context () =
  with_log_captured @@ fun buf ->
  Obs.Span.with_trace "abc123def4567890" (fun () -> Obs.Log.info "traced" []);
  Obs.Log.info "untraced" [];
  let out = Buffer.contents buf in
  Alcotest.(check bool) "trace field" true
    (contains out "\"event\":\"traced\",\"trace\":\"abc123def4567890\"");
  Alcotest.(check bool) "no stale trace" false
    (contains out "\"event\":\"untraced\",\"trace\"")

(* --- trace context --- *)

let test_with_trace_tags_spans () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_clock (Obs.Clock.fake ~start:0L ~step:100L ());
  Obs.Span.with_ ~name:"before" (fun () -> ());
  Obs.Span.with_trace "t1" (fun () -> Obs.Span.with_ ~name:"req" (fun () -> ()));
  let traces =
    List.map (fun (e : Obs.Span.event) -> (e.Obs.Span.name, e.Obs.Span.trace))
      (Obs.Span.events ())
  in
  Alcotest.(check (list (pair string string)))
    "only in-context spans tagged"
    [ ("before", ""); ("before", ""); ("req", "t1"); ("req", "t1") ]
    traces

let test_with_trace_nests_and_restores () =
  Obs.reset ();
  Obs.disable ();
  (* Works without the span layer (the log picks the id up either way). *)
  let inner = ref "" and restored = ref "?" in
  Obs.Span.with_trace "outer" (fun () ->
      Obs.Span.with_trace "inner" (fun () -> inner := Obs.Span.current_trace ());
      restored := Obs.Span.current_trace ());
  Alcotest.(check string) "inner wins inside" "inner" !inner;
  Alcotest.(check string) "outer restored" "outer" !restored;
  Alcotest.(check string) "cleared after" "" (Obs.Span.current_trace ());
  (try Obs.Span.with_trace "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check string) "restored on raise" "" (Obs.Span.current_trace ())

let test_with_trace_reaches_worker_domains () =
  with_obs_enabled @@ fun () ->
  (* Trace context is domain-local, so a raw [Domain.spawn] starts
     clean; Exec.parallel_for captures the caller's context and
     re-installs it in the workers it spawns. *)
  Obs.Span.with_trace "wtrace" (fun () ->
      Exec.parallel_for ~jobs:2 ~n:2 ~chunk:1 (fun ~lo:_ ~hi:_ ->
          Obs.Span.with_ ~name:"wk" (fun () -> ())));
  let wk =
    List.filter (fun (e : Obs.Span.event) -> e.Obs.Span.name = "wk") (Obs.Span.events ())
  in
  Alcotest.(check int) "worker spans recorded" 4 (List.length wk);
  List.iter
    (fun (e : Obs.Span.event) ->
      Alcotest.(check string) "worker event tagged" "wtrace" e.Obs.Span.trace)
    wk;
  (* A raw spawn, by contrast, must NOT inherit the context: that is the
     isolation that keeps N concurrent requests' ids from bleeding. *)
  Obs.Span.with_trace "leaky?" (fun () ->
      let d = Domain.spawn (fun () -> Obs.Span.current_trace ()) in
      Alcotest.(check string) "raw spawn starts clean" "" (Domain.join d))

let test_trace_isolated_across_domains () =
  Obs.reset ();
  Obs.disable ();
  (* Two domains under different ids concurrently: each must read back
     its own, and the main domain's context must be untouched. *)
  let read_under id =
    Obs.Span.with_trace id (fun () ->
        (* Give the sibling a chance to interleave. *)
        Domain.cpu_relax ();
        Obs.Span.current_trace ())
  in
  Obs.Span.with_trace "main-ctx" (fun () ->
      let a = Domain.spawn (fun () -> read_under "trace-a") in
      let b = Domain.spawn (fun () -> read_under "trace-b") in
      let ra = Domain.join a and rb = Domain.join b in
      Alcotest.(check string) "domain a sees its own id" "trace-a" ra;
      Alcotest.(check string) "domain b sees its own id" "trace-b" rb;
      Alcotest.(check string) "main context untouched" "main-ctx"
        (Obs.Span.current_trace ()))

let test_trace_in_exports () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_clock (Obs.Clock.fake ~start:5L ~step:10L ());
  Obs.Span.with_trace "deadbeef" (fun () -> Obs.Span.with_ ~name:"a.b" (fun () -> ()));
  let evs = Obs.Span.events () in
  Alcotest.(check string) "jsonl gains trace field"
    "{\"name\":\"a.b\",\"ph\":\"B\",\"ts_ns\":5,\"depth\":0,\"domain\":0,\"trace\":\"deadbeef\"}\n\
     {\"name\":\"a.b\",\"ph\":\"E\",\"ts_ns\":15,\"depth\":0,\"domain\":0,\"trace\":\"deadbeef\"}\n"
    (Obs.Export.jsonl evs);
  let chrome = Obs.Export.chrome_trace evs in
  Alcotest.(check bool) "chrome args.trace" true
    (contains chrome "\"args\":{\"trace\":\"deadbeef\"}");
  match Obs.Json.parse chrome with
  | Error e -> Alcotest.fail ("chrome trace unparseable: " ^ e)
  | Ok _ -> ()

(* --- spans --- *)

let test_nested_spans_fake_clock () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_clock (Obs.Clock.fake ~start:0L ~step:100L ());
  let r =
    Obs.Span.with_ ~name:"outer" (fun () ->
        Obs.Span.with_ ~name:"inner" (fun () -> 7))
  in
  Alcotest.(check int) "value threads through" 7 r;
  let evs = Obs.Span.events () in
  let shape =
    List.map
      (fun (e : Obs.Span.event) ->
        Printf.sprintf "%s %s %Ld d%d" e.Obs.Span.name
          (match e.Obs.Span.phase with Obs.Span.Begin -> "B" | Obs.Span.End -> "E")
          e.Obs.Span.t_ns e.Obs.Span.depth)
      evs
  in
  Alcotest.(check (list string))
    "begin/end nesting with ticking clock"
    [ "outer B 0 d0"; "inner B 100 d1"; "inner E 200 d1"; "outer E 300 d0" ]
    shape;
  let sums = Obs.Span.summarize evs in
  Alcotest.(check int) "two span names" 2 (List.length sums);
  let outer = List.find (fun s -> s.Obs.Span.span_name = "outer") sums in
  let inner = List.find (fun s -> s.Obs.Span.span_name = "inner") sums in
  Alcotest.(check int64) "outer total" 300L outer.Obs.Span.total_ns;
  Alcotest.(check int64) "inner total" 100L inner.Obs.Span.total_ns

let test_span_end_recorded_on_raise () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_clock (Obs.Clock.fake ());
  (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
  let evs = Obs.Span.events () in
  Alcotest.(check int) "begin and end" 2 (List.length evs);
  match List.rev evs with
  | last :: _ ->
      Alcotest.(check bool) "last is End" true (last.Obs.Span.phase = Obs.Span.End)
  | [] -> Alcotest.fail "no events"

let test_span_ring_overflow () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_capacity 8;
  Fun.protect ~finally:(fun () -> Obs.Span.set_capacity 65_536) @@ fun () ->
  Obs.Span.set_clock (Obs.Clock.fake ());
  for _ = 1 to 10 do
    Obs.Span.with_ ~name:"tick" (fun () -> ())
  done;
  Alcotest.(check int) "ring keeps capacity" 8 (List.length (Obs.Span.events ()));
  Alcotest.(check int) "dropped counts overflow" 12 (Obs.Span.dropped ())

let test_disabled_span_records_nothing () =
  Obs.reset ();
  Obs.disable ();
  let r = Obs.Span.with_ ~name:"off" (fun () -> 3) in
  Alcotest.(check int) "passthrough" 3 r;
  Alcotest.(check int) "no events" 0 (List.length (Obs.Span.events ()))

(* --- exporters (golden output) --- *)

let test_jsonl_golden () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_clock (Obs.Clock.fake ~start:5L ~step:10L ());
  Obs.Span.with_ ~name:"a.b" (fun () -> ());
  Alcotest.(check string) "jsonl"
    "{\"name\":\"a.b\",\"ph\":\"B\",\"ts_ns\":5,\"depth\":0,\"domain\":0}\n\
     {\"name\":\"a.b\",\"ph\":\"E\",\"ts_ns\":15,\"depth\":0,\"domain\":0}\n"
    (Obs.Export.jsonl (Obs.Span.events ()))

let test_chrome_trace_golden () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_clock (Obs.Clock.fake ~start:0L ~step:100L ());
  Obs.Span.with_ ~name:"a" (fun () -> ());
  Alcotest.(check string) "chrome trace"
    "{\"traceEvents\":[\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"solarstorm\"}},\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"domain 0\"}},\
     {\"name\":\"a\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":0.000,\"pid\":1,\"tid\":0},\
     {\"name\":\"a\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":0.100,\"pid\":1,\"tid\":0}\
     ],\"displayTimeUnit\":\"ms\"}"
    (Obs.Export.chrome_trace (Obs.Span.events ()))

(* A float as Prometheus spells it: the sample of a one-gauge
   exposition. *)
let prom_float v =
  let text = Obs.Export.prometheus [ ("g", Obs.Metrics.Gauge v) ] in
  let head = "# TYPE g gauge\ng " in
  let n = String.length head in
  if not (String.starts_with ~prefix:head text && String.ends_with ~suffix:"\n" text) then
    Alcotest.fail text;
  String.sub text n (String.length text - n - 1)

let test_json_float_nonfinite () =
  Alcotest.(check string) "nan is null" "null" (Obs.Json.number_repr Float.nan);
  Alcotest.(check string) "inf is null" "null" (Obs.Json.number_repr Float.infinity);
  Alcotest.(check string) "-inf is null" "null" (Obs.Json.number_repr Float.neg_infinity);
  Alcotest.(check string) "integer" "2.0" (Obs.Json.number_repr 2.0);
  Alcotest.(check string) "fraction" "2.5" (Obs.Json.number_repr 2.5);
  Alcotest.(check string) "prom nan" "NaN" (prom_float Float.nan);
  Alcotest.(check string) "prom +inf" "+Inf" (prom_float Float.infinity);
  Alcotest.(check string) "prom -inf" "-Inf" (prom_float Float.neg_infinity);
  Alcotest.(check string) "prom finite" "2.0" (prom_float 2.0)

let test_json_snapshot_nonfinite_gauge () =
  with_obs_enabled @@ fun () ->
  let g = Obs.Metrics.gauge "nf.gauge" in
  Obs.Metrics.set g Float.nan;
  let snap = List.filter (fun (n, _) -> n = "nf.gauge") (Obs.Metrics.snapshot ()) in
  let out = Obs.Export.json_of_snapshot snap in
  Alcotest.(check string) "nan gauge serialises as null" "{\"nf.gauge\":null}" out;
  (* ... and the document stays parseable JSON. *)
  match Obs.Json.parse out with
  | Ok doc -> Alcotest.(check bool) "null member" true (Obs.Json.member "nf.gauge" doc = Some Obs.Json.Null)
  | Error e -> Alcotest.fail ("unparseable: " ^ e)

let test_prometheus_nonfinite_gauge () =
  with_obs_enabled @@ fun () ->
  let g = Obs.Metrics.gauge "weird-name.x/y" in
  let render () =
    Obs.Export.prometheus
      (List.filter (fun (n, _) -> n = "weird-name.x/y") (Obs.Metrics.snapshot ()))
  in
  Obs.Metrics.set g Float.nan;
  Alcotest.(check string) "NaN + sanitised name"
    "# TYPE weird_name_x_y gauge\nweird_name_x_y NaN\n" (render ());
  Obs.Metrics.set g Float.infinity;
  Alcotest.(check bool) "+Inf" true (contains (render ()) "weird_name_x_y +Inf");
  Obs.Metrics.set g Float.neg_infinity;
  Alcotest.(check bool) "-Inf" true (contains (render ()) "weird_name_x_y -Inf")

let test_prometheus_histogram_invariants () =
  with_obs_enabled @@ fun () ->
  let h = Obs.Metrics.histogram "inv.hist-2" ~buckets:[| 0.5; 1.5 |] in
  List.iter (Obs.Metrics.observe h) [ 0.1; 1.0; 2.0; 50.0 ];
  let out =
    Obs.Export.prometheus
      (List.filter (fun (n, _) -> n = "inv.hist-2") (Obs.Metrics.snapshot ()))
  in
  (* Sanitised name, cumulative buckets, and the +Inf bucket equal to
     _count (the exposition-format histogram invariant). *)
  Alcotest.(check bool) "type line" true (contains out "# TYPE inv_hist_2 histogram");
  Alcotest.(check bool) "bucket 0.5" true (contains out "inv_hist_2_bucket{le=\"0.5\"} 1");
  Alcotest.(check bool) "bucket 1.5" true (contains out "inv_hist_2_bucket{le=\"1.5\"} 2");
  Alcotest.(check bool) "+Inf bucket" true (contains out "inv_hist_2_bucket{le=\"+Inf\"} 4");
  Alcotest.(check bool) "count" true (contains out "inv_hist_2_count 4");
  Alcotest.(check bool) "sum" true (contains out "inv_hist_2_sum 53.1")

let test_prometheus_golden () =
  with_obs_enabled @@ fun () ->
  let c = Obs.Metrics.counter "gold.count" in
  let h = Obs.Metrics.histogram "gold.hist" ~buckets:[| 1.0; 2.0 |] in
  Obs.Metrics.add c 3;
  Obs.Metrics.observe h 0.5;
  Obs.Metrics.observe h 1.5;
  Obs.Metrics.observe h 9.0;
  let snap =
    List.filter (fun (n, _) -> n = "gold.count" || n = "gold.hist") (Obs.Metrics.snapshot ())
  in
  Alcotest.(check string) "prometheus text"
    "# TYPE gold_count counter\n\
     gold_count 3\n\
     # TYPE gold_hist histogram\n\
     gold_hist_bucket{le=\"1.0\"} 1\n\
     gold_hist_bucket{le=\"2.0\"} 2\n\
     gold_hist_bucket{le=\"+Inf\"} 3\n\
     gold_hist_sum 11.0\n\
     gold_hist_count 3\n\
     # TYPE gold_hist_quantile gauge\n\
     gold_hist_quantile{q=\"0.5\"} 1.5\n\
     gold_hist_quantile{q=\"0.95\"} 2.0\n\
     gold_hist_quantile{q=\"0.99\"} 2.0\n"
    (Obs.Export.prometheus snap)

let test_json_snapshot_golden () =
  with_obs_enabled @@ fun () ->
  let c = Obs.Metrics.counter "gold.count" in
  Obs.Metrics.add c 3;
  let snap = List.filter (fun (n, _) -> n = "gold.count") (Obs.Metrics.snapshot ()) in
  Alcotest.(check string) "json object" "{\"gold.count\":3}" (Obs.Export.json_of_snapshot snap)

let test_report_table () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_clock (Obs.Clock.fake ());
  let c = Obs.Metrics.counter "table.counter" in
  Obs.Metrics.add c 5;
  Obs.Span.with_ ~name:"table.span" (fun () -> ());
  let out = Report.Obs_report.render ~events:(Obs.Span.events ()) (Obs.Metrics.snapshot ()) in
  Alcotest.(check bool) "metric row" true (contains out "table.counter");
  Alcotest.(check bool) "metric value" true (contains out "5");
  Alcotest.(check bool) "span row" true (contains out "table.span");
  Alcotest.(check bool) "header" true (contains out "metric")

(* --- ring wrap / tree reconstruction --- *)

let test_ring_wrap_keeps_pairing () =
  with_obs_enabled @@ fun () ->
  Obs.Span.set_capacity 6;
  Fun.protect ~finally:(fun () -> Obs.Span.set_capacity 65_536) @@ fun () ->
  Obs.Span.set_clock (Obs.Clock.fake ~start:0L ~step:100L ());
  (* Pushes a B, (b B, b E) x3, a E = 8 events into a 6-slot ring: the
     wrap drops "a Begin" and the first "b Begin", leaving an orphan
     "b End" and an orphan "a End" in the stream. *)
  Obs.Span.with_ ~name:"a" (fun () ->
      for _ = 1 to 3 do
        Obs.Span.with_ ~name:"b" (fun () -> ())
      done);
  let evs = Obs.Span.events () in
  Alcotest.(check int) "ring keeps capacity" 6 (List.length evs);
  Alcotest.(check int) "two dropped" 2 (Obs.Span.dropped ());
  let sums = Obs.Span.summarize evs in
  (* Orphan Ends are ignored; the two intact b spans still pair up. *)
  Alcotest.(check int) "only b survives" 1 (List.length sums);
  let b = List.hd sums in
  Alcotest.(check string) "b" "b" b.Obs.Span.span_name;
  Alcotest.(check int) "two intact pairs" 2 b.Obs.Span.calls;
  Alcotest.(check int64) "100ns each" 200L b.Obs.Span.total_ns;
  (* The JSONL export of a wrapped stream stays one valid line per event. *)
  let lines = String.split_on_char '\n' (String.trim (Obs.Export.jsonl evs)) in
  Alcotest.(check int) "jsonl line per event" 6 (List.length lines)

(* --- per-domain rings --- *)

let test_worker_domain_spans () =
  with_obs_enabled @@ fun () ->
  Obs.Span.with_ ~name:"main.span" (fun () -> ());
  let d1 = Domain.spawn (fun () -> Obs.Span.with_ ~name:"w1" (fun () -> ())) in
  Domain.join d1;
  (* The second domain reuses the first's pooled ring; w1's events must
     survive the reuse (each event carries its own domain id). *)
  let d2 = Domain.spawn (fun () -> Obs.Span.with_ ~name:"w2" (fun () -> ())) in
  Domain.join d2;
  let evs = Obs.Span.events () in
  let doms =
    List.sort_uniq compare (List.map (fun (e : Obs.Span.event) -> e.Obs.Span.domain) evs)
  in
  Alcotest.(check bool) "at least two domains" true (List.length doms >= 2);
  let sums = Obs.Span.summarize evs in
  List.iter
    (fun name ->
      match List.find_opt (fun s -> s.Obs.Span.span_name = name) sums with
      | Some s -> Alcotest.(check int) (name ^ " paired") 1 s.Obs.Span.calls
      | None -> Alcotest.fail ("missing span " ^ name))
    [ "main.span"; "w1"; "w2" ]

let test_parallel_engine_spans () =
  with_obs_enabled @@ fun () ->
  let network = Datasets.Submarine.build ~seed:7 () in
  let plan = Stormsim.Plan.compile ~network ~model:Stormsim.Failure_model.s1 () in
  (* With the persistent pool the caller participates in its own job, so
     a fast caller could drain every chunk before the pooled helper
     attaches.  Hold each trial until two distinct domains have joined:
     the job stays open while trials block, so the helper provably
     participates — making the >= 2 domains assertion deterministic. *)
  let seen = Atomic.make [] in
  let rec note () =
    let l = Atomic.get seen in
    let d = (Domain.self () :> int) in
    if not (List.mem d l) && not (Atomic.compare_and_set seen l (d :: l)) then note ()
  in
  let n =
    Stormsim.Plan.run_trials_par ~jobs:2 plan ~trials:8 ~seed:3 ~init:0
      ~map:(fun ~rng:_ ~dead:_ ->
        note ();
        while List.length (Atomic.get seen) < 2 do
          Domain.cpu_relax ()
        done;
        1)
      ~merge:( + )
  in
  Alcotest.(check int) "all trials ran" 8 n;
  let evs = Obs.Span.events () in
  let worker_doms =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Obs.Span.event) ->
           if e.Obs.Span.name = "exec.worker" then Some e.Obs.Span.domain else None)
         evs)
  in
  Alcotest.(check bool) "exec.worker on >= 2 domains" true (List.length worker_doms >= 2);
  (* The chrome trace of a parallel run must parse as JSON and carry one
     thread row per participating domain. *)
  match Obs.Json.parse (Obs.Export.chrome_trace evs) with
  | Error e -> Alcotest.fail ("chrome trace unparseable: " ^ e)
  | Ok doc -> (
      match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.array with
      | None -> Alcotest.fail "no traceEvents"
      | Some events ->
          let tids =
            List.sort_uniq compare
              (List.filter_map
                 (fun e ->
                   match Option.bind (Obs.Json.member "ph" e) Obs.Json.string_ with
                   | Some ("B" | "E") ->
                       Option.map int_of_float
                         (Option.bind (Obs.Json.member "tid" e) Obs.Json.number)
                   | _ -> None)
                 events)
          in
          Alcotest.(check bool) ">= 2 tids in trace" true (List.length tids >= 2))

(* --- resource gauges --- *)

let test_resource_gauges () =
  with_obs_enabled @@ fun () ->
  ignore (Sys.opaque_identity (Array.make 4096 0.0));
  Obs.Resource.sample ();
  let snap = Obs.Metrics.snapshot () in
  let gauge name =
    match List.assoc_opt name snap with
    | Some (Obs.Metrics.Gauge v) -> v
    | _ -> Alcotest.fail ("missing gauge " ^ name)
  in
  Alcotest.(check bool) "minor words counted" true (gauge "gc.minor_words" > 0.0);
  Alcotest.(check bool) "heap words counted" true (gauge "gc.heap_words" > 0.0);
  Alcotest.(check bool) "top heap words counted" true (gauge "gc.top_heap_words" > 0.0);
  Alcotest.(check bool) "wall clock advanced" true (gauge "proc.wall_ns" >= 0.0)

let test_resource_disabled_is_noop () =
  Obs.reset ();
  Obs.disable ();
  Obs.Resource.sample ();
  match List.assoc_opt "gc.minor_words" (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Gauge v) -> Alcotest.(check (float 1e-9)) "stays zero" 0.0 v
  | _ -> Alcotest.fail "gauge not registered"

(* --- progress meter --- *)

let with_progress_captured f =
  let buf = Buffer.create 256 in
  Obs.Progress.enable ();
  Obs.Progress.set_sink (Buffer.add_string buf);
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.disable ();
      Obs.Progress.set_sink (fun s ->
          output_string stderr s;
          flush stderr);
      Obs.Progress.set_clock Obs.Clock.monotonic)
    (fun () -> f buf)

let test_progress_meter () =
  with_progress_captured @@ fun buf ->
  Obs.Progress.set_clock (Obs.Clock.fake ~start:0L ~step:1_000_000_000L ());
  let run = Obs.Progress.start ~label:"trials" ~total:3 in
  Obs.Progress.tick run;
  Obs.Progress.tick run;
  Obs.Progress.tick run;
  Alcotest.(check int) "counter" 3 (Obs.Progress.completed run);
  Obs.Progress.finish run;
  let out = Buffer.contents buf in
  Alcotest.(check bool) "final count" true (contains out "trials 3/3 (100%)");
  Alcotest.(check bool) "rate" true (contains out "trials/s");
  Alcotest.(check bool) "eta" true (contains out "ETA");
  Alcotest.(check bool) "newline on finish" true (contains out "\n")

let test_progress_disabled_is_silent () =
  let buf = Buffer.create 16 in
  Obs.Progress.disable ();
  Obs.Progress.set_sink (Buffer.add_string buf);
  Fun.protect
    ~finally:(fun () ->
      Obs.Progress.set_sink (fun s ->
          output_string stderr s;
          flush stderr))
    (fun () ->
      let run = Obs.Progress.start ~label:"x" ~total:2 in
      Obs.Progress.tick run;
      Obs.Progress.finish run;
      Alcotest.(check int) "disabled run counts nothing" 0 (Obs.Progress.completed run);
      Alcotest.(check string) "no output" "" (Buffer.contents buf))

let test_progress_concurrent_runs () =
  (* Regression: runs are independent handles.  When the meter lived in
     one process-wide atomic, a second [start] clobbered the first run's
     counter and label mid-flight (two server worker domains each running
     a plan did exactly that). *)
  with_progress_captured @@ fun buf ->
  Obs.Progress.set_clock (Obs.Clock.fake ~start:0L ~step:1_000_000_000L ());
  let a = Obs.Progress.start ~label:"outer" ~total:2 in
  let b = Obs.Progress.start ~label:"inner" ~total:3 in
  Obs.Progress.tick b;
  Obs.Progress.tick a;
  Obs.Progress.tick ~n:2 b;
  Obs.Progress.finish b;
  Obs.Progress.tick a;
  Obs.Progress.finish a;
  Alcotest.(check int) "outer kept its own count" 2 (Obs.Progress.completed a);
  Alcotest.(check int) "inner counted independently" 3 (Obs.Progress.completed b);
  let out = Buffer.contents buf in
  Alcotest.(check bool) "inner rendered to completion" true
    (contains out "inner 3/3 (100%)");
  Alcotest.(check bool) "outer rendered to completion" true
    (contains out "outer 2/2 (100%)")

let test_progress_through_trial_drivers () =
  (* --progress works without the metrics/span layer: leave Obs disabled. *)
  Obs.reset ();
  Obs.disable ();
  with_progress_captured @@ fun buf ->
  let network = Datasets.Submarine.build ~seed:7 () in
  let plan = Stormsim.Plan.compile ~network ~model:Stormsim.Failure_model.s1 () in
  let seq =
    Stormsim.Plan.run_trials_par ~jobs:1 plan ~trials:5 ~seed:1 ~init:0
      ~map:(fun ~rng:_ ~dead:_ -> 1)
      ~merge:( + )
  in
  Alcotest.(check int) "sequential trials" 5 seq;
  Alcotest.(check bool) "sequential meter" true (contains (Buffer.contents buf) "trials 5/5 (100%)");
  Buffer.clear buf;
  let par =
    Stormsim.Plan.run_trials_par ~jobs:2 plan ~trials:6 ~seed:1 ~init:0
      ~map:(fun ~rng:_ ~dead:_ -> 1)
      ~merge:( + )
  in
  Alcotest.(check int) "parallel trials" 6 par;
  Alcotest.(check bool) "parallel meter" true (contains (Buffer.contents buf) "trials 6/6 (100%)")

(* --- json reader --- *)

let test_json_parse_structure () =
  match Obs.Json.parse "{\"a\":[1,2.5,\"x\\ny\"],\"b\":{\"c\":null,\"d\":true},\"e\":-3e2}" with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      (match Option.bind (Obs.Json.member "a" doc) Obs.Json.array with
      | Some [ x; y; z ] ->
          Alcotest.(check (option (float 1e-9))) "int" (Some 1.0) (Obs.Json.number x);
          Alcotest.(check (option (float 1e-9))) "frac" (Some 2.5) (Obs.Json.number y);
          Alcotest.(check (option string)) "escaped" (Some "x\ny") (Obs.Json.string_ z)
      | _ -> Alcotest.fail "bad array");
      (match Option.bind (Obs.Json.member "b" doc) (Obs.Json.member "c") with
      | Some Obs.Json.Null -> ()
      | _ -> Alcotest.fail "missing null");
      Alcotest.(check (option (float 1e-9))) "exponent" (Some (-300.0))
        (Option.bind (Obs.Json.member "e" doc) Obs.Json.number)

let test_json_rejects_garbage () =
  let bad = [ "[1,2]trailing"; "{bad"; "{\"a\":}"; ""; "{\"a\":1,}" ] in
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ s)
      | Error _ -> ())
    bad

let test_json_escape_roundtrip () =
  let original = "a\"\\\n\t\rb\x01c" in
  match Obs.Json.parse (Printf.sprintf "\"%s\"" (Obs.Json.escape original)) with
  | Ok (Obs.Json.String s) -> Alcotest.(check string) "roundtrip" original s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.fail e

let test_json_parses_bench_document () =
  let doc =
    "{\"schema\":\"solarstorm-bench/1\",\"mode\":\"fast\",\"kernels\":[{\"name\":\"plan.sample\",\"ns_per_run\":1234.0,\"estimator\":\"min-of-3\"}],\"metrics\":{\"rng.draws\":42,\"nf\":null}}"
  in
  match Obs.Json.parse doc with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check (option string)) "schema" (Some "solarstorm-bench/1")
        (Option.bind (Obs.Json.member "schema" d) Obs.Json.string_);
      (match Option.bind (Obs.Json.member "kernels" d) Obs.Json.array with
      | Some [ k ] ->
          Alcotest.(check (option string)) "kernel name" (Some "plan.sample")
            (Option.bind (Obs.Json.member "name" k) Obs.Json.string_);
          Alcotest.(check (option (float 1e-9))) "kernel ns" (Some 1234.0)
            (Option.bind (Obs.Json.member "ns_per_run" k) Obs.Json.number)
      | _ -> Alcotest.fail "bad kernels")

(* --- json writer: encode/decode round-trips --- *)

let rec json_equal_by num a b =
  match (a, b) with
  | Obs.Json.Null, Obs.Json.Null -> true
  | Obs.Json.Bool x, Obs.Json.Bool y -> x = y
  | Obs.Json.Number x, Obs.Json.Number y -> num x y
  | Obs.Json.String x, Obs.Json.String y -> x = y
  | Obs.Json.Array xs, Obs.Json.Array ys ->
      List.length xs = List.length ys && List.for_all2 (json_equal_by num) xs ys
  | Obs.Json.Object xs, Obs.Json.Object ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal_by num v1 v2)
           xs ys
  | _ -> false

(* NaN encodes as null, so it never round-trips as a Number. *)
let json_equal = json_equal_by (fun x y -> x = y)

let roundtrip doc =
  match Obs.Json.parse (Obs.Json.to_string doc) with
  | Error e -> Alcotest.fail ("re-parse failed: " ^ e)
  | Ok doc' ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trip of %s" (Obs.Json.to_string doc))
        true (json_equal doc doc')

let test_json_to_string_roundtrip () =
  roundtrip Obs.Json.Null;
  roundtrip (Obs.Json.Bool true);
  roundtrip (Obs.Json.Number 0.0);
  roundtrip (Obs.Json.Number (-3.25e-7));
  roundtrip (Obs.Json.Number 1234567890.0);
  roundtrip (Obs.Json.Number 0.30000000000000004);
  roundtrip (Obs.Json.String "");
  roundtrip (Obs.Json.String "a\"\\\n\t\r\x01 unicode: \xc3\xa9");
  roundtrip (Obs.Json.Array []);
  roundtrip (Obs.Json.Object []);
  roundtrip
    (Obs.Json.Object
       [
         ("a", Obs.Json.Array [ Obs.Json.Number 1.0; Obs.Json.Bool false ]);
         ("empty", Obs.Json.Object [ ("k", Obs.Json.Null) ]);
         ("s", Obs.Json.String "x/y");
       ])

let test_json_to_string_compact_golden () =
  let doc =
    Obs.Json.Object
      [
        ("a", Obs.Json.Number 1.0);
        ("b", Obs.Json.Array [ Obs.Json.String "x"; Obs.Json.Null ]);
      ]
  in
  Alcotest.(check string) "compact has no spaces"
    "{\"a\":1.0,\"b\":[\"x\",null]}" (Obs.Json.to_string doc);
  (* Pretty form parses back to the same document. *)
  (match Obs.Json.parse (Obs.Json.to_string ~pretty:true doc) with
  | Ok doc' -> Alcotest.(check bool) "pretty re-parses" true (json_equal doc doc')
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "pretty is indented" true
    (contains (Obs.Json.to_string ~pretty:true doc) "\n  \"a\": 1.0")

let test_json_to_string_nonfinite_is_null () =
  Alcotest.(check string) "nan" "null" (Obs.Json.to_string (Obs.Json.Number Float.nan));
  Alcotest.(check string) "inf in array" "[null,1.0]"
    (Obs.Json.to_string
       (Obs.Json.Array [ Obs.Json.Number Float.infinity; Obs.Json.Number 1.0 ]))

let test_json_unicode_escapes () =
  (* \u escape decoding: BMP, surrogate pair, and the rejects. *)
  (match Obs.Json.parse "\"\\u00e9\"" with
  | Ok (Obs.Json.String s) -> Alcotest.(check string) "bmp" "\xc3\xa9" s
  | _ -> Alcotest.fail "BMP escape");
  (match Obs.Json.parse "\"\\uD83D\\uDE00\"" with
  | Ok (Obs.Json.String s) ->
      (* U+1F600, UTF-8 f0 9f 98 80 *)
      Alcotest.(check string) "astral" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair");
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted bad escape: " ^ s)
      | Error _ -> ())
    [
      "\"\\uD83D\"" (* lone high surrogate *);
      "\"\\uDE00\"" (* lone low surrogate *);
      "\"\\uD83D\\u0041\"" (* high surrogate + non-low *);
      "\"\\u00_1\"" (* int_of_string leniency must not leak in *);
      "\"\\u12\"" (* truncated *);
    ]

(* --- progress TTY gating --- *)

let test_progress_tty_sink_gates () =
  let buf = Buffer.create 64 in
  let probes = ref 0 in
  let not_tty =
    Obs.Progress.tty_sink
      ~isatty:(fun () -> incr probes; false)
      (Buffer.add_string buf)
  in
  not_tty "hidden";
  not_tty "also hidden";
  Alcotest.(check string) "non-TTY sink swallows output" "" (Buffer.contents buf);
  Alcotest.(check int) "probe is memoized" 1 !probes;
  let tty =
    Obs.Progress.tty_sink ~isatty:(fun () -> true) (Buffer.add_string buf)
  in
  tty "shown";
  Alcotest.(check string) "TTY sink writes through" "shown" (Buffer.contents buf)

let test_progress_injected_sink_not_gated () =
  (* set_sink callers (tests, exporters) are never TTY-gated: the meter
     must reach an injected buffer even with no terminal attached. *)
  with_progress_captured @@ fun buf ->
  Obs.Progress.set_clock (Obs.Clock.fake ~start:0L ~step:1_000_000_000L ());
  let run = Obs.Progress.start ~label:"gate" ~total:1 in
  Obs.Progress.tick run;
  Obs.Progress.finish run;
  Alcotest.(check bool) "injected sink saw the meter" true
    (contains (Buffer.contents buf) "gate 1/1 (100%)")

(* --- instrumented pipeline --- *)

let test_montecarlo_metrics_flow () =
  with_obs_enabled @@ fun () ->
  let network = Datasets.Submarine.build ~seed:7 () in
  let (_ : Stormsim.Montecarlo.series) =
    Stormsim.Montecarlo.run ~trials:4 ~seed:7 ~network ~spacing_km:150.0
      ~model:Stormsim.Failure_model.s1 ()
  in
  (match List.assoc "mc.trials_total" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Counter n -> Alcotest.(check int) "trials counted" 4 n
  | _ -> Alcotest.fail "not a counter");
  (match List.assoc "rng.draws" (Obs.Metrics.snapshot ()) with
  | Obs.Metrics.Counter n -> Alcotest.(check bool) "rng draws counted" true (n > 0)
  | _ -> Alcotest.fail "not a counter");
  let names =
    List.sort_uniq String.compare
      (List.map (fun (e : Obs.Span.event) -> e.Obs.Span.name) (Obs.Span.events ()))
  in
  Alcotest.(check bool) "mc.run span" true (List.mem "mc.run" names);
  Alcotest.(check bool) "plan.chunk span" true (List.mem "plan.chunk" names);
  Alcotest.(check bool) "fm.compile span" true (List.mem "fm.compile" names)

(* A run pushes a fixed number of span events whatever its trial count
   (one span per claimed chunk, none per trial), and its counters are
   settled in batches that still add up to the exact totals, at any job
   count. *)
let test_montecarlo_batched_obs () =
  let network = Datasets.Cache.submarine () in
  let plan = Stormsim.Plan.compile ~network ~model:Stormsim.Failure_model.s1 () in
  let names = [ "mc.trials_total"; "mc.cables_failed"; "plan.trials"; "rng.draws" ] in
  let run ~jobs ~trials =
    with_obs_enabled @@ fun () ->
    ignore (Stormsim.Montecarlo.run_plan ~jobs ~trials ~seed:5 plan);
    (* How many pool domains join a section varies with scheduling, and
       each one that does records one [exec.worker] span. *)
    let spans =
      List.length
        (List.filter
           (fun (e : Obs.Span.event) -> e.Obs.Span.name <> "exec.worker")
           (Obs.Span.events ()))
    in
    let counter name =
      match List.assoc name (Obs.Metrics.snapshot ()) with
      | Obs.Metrics.Counter n -> n
      | _ -> Alcotest.fail (name ^ " is not a counter")
    in
    (spans, List.map counter names)
  in
  let trials = 4000 in
  let failed =
    Stormsim.Plan.run_trials_par ~jobs:1 plan ~trials ~seed:5 ~init:0
      ~map:(fun ~rng:_ ~dead -> Stormsim.Deadset.count_dead dead)
      ~merge:( + )
  in
  let uncertain = ref 0 in
  for c = 0 to Stormsim.Plan.nb_cables plan - 1 do
    if Stormsim.Plan.death_prob plan c > 0.0 then incr uncertain
  done;
  let exact = [ trials; failed; trials; trials * (1 + !uncertain) ] in
  List.iter
    (fun jobs ->
      let few, _ = run ~jobs ~trials:400 in
      let many, counters = run ~jobs ~trials in
      Alcotest.(check int) (Printf.sprintf "jobs %d: span events at 400 = at 4000" jobs) few many;
      List.iter2
        (fun name (want, got) ->
          Alcotest.(check int) (Printf.sprintf "jobs %d: %s exact" jobs name) want got)
        names (List.combine exact counters))
    [ 1; 2 ]

let test_montecarlo_determinism_under_instrumentation () =
  Obs.reset ();
  Obs.disable ();
  let network = Datasets.Submarine.build ~seed:11 () in
  let run () =
    Stormsim.Montecarlo.run ~trials:6 ~seed:11 ~network ~spacing_km:150.0
      ~model:Stormsim.Failure_model.s2 ()
  in
  let plain = run () in
  let instrumented = with_obs_enabled run in
  let again = run () in
  Alcotest.(check bool) "instrumented run bit-identical" true (plain = instrumented);
  Alcotest.(check bool) "disabled-again run bit-identical" true (plain = again)

(* --- windowed timeseries --- *)

let second_ns = 1_000_000_000L
let wide_window = 100_000_000_000L (* covers everything a test records *)

(* One fake-clocked ring: samples land exactly one second apart. *)
let ts_with_fake ?(retention = 4) () =
  Obs.Timeseries.create
    ~clock:(Obs.Clock.fake ~start:0L ~step:second_ns ())
    ~step_ns:second_ns ~retention ()

let test_timeseries_ring_wraparound () =
  let ts = ts_with_fake ~retention:4 () in
  for i = 1 to 7 do
    Obs.Timeseries.record ts [ ("c", Obs.Metrics.Counter i) ]
  done;
  Alcotest.(check int) "length caps at retention" 4 (Obs.Timeseries.length ts);
  (match Obs.Timeseries.latest ts with
  | Some (ts_ns, [ ("c", Obs.Metrics.Counter 7) ]) ->
      Alcotest.(check int64) "latest keeps its stamp" 6_000_000_000L ts_ns
  | _ -> Alcotest.fail "latest sample wrong");
  (* Only samples 4..7 survive the wrap: three 1/s deltas. *)
  let rates = Obs.Timeseries.rate_series ts ~window_ns:wide_window "c" in
  Alcotest.(check int) "post-wrap points" 3 (List.length rates);
  List.iter
    (fun p -> Alcotest.(check (float 1e-9)) "rate" 1.0 p.Obs.Timeseries.p_v)
    rates

let test_timeseries_counter_reset_clamps () =
  let ts = ts_with_fake ~retention:8 () in
  List.iter
    (fun v -> Obs.Timeseries.record ts [ ("c", Obs.Metrics.Counter v) ])
    [ 0; 10; 5; 8 ];
  let rates =
    List.map
      (fun p -> p.Obs.Timeseries.p_v)
      (Obs.Timeseries.rate_series ts ~window_ns:wide_window "c")
  in
  (* The mid-window reset (10 → 5) reads as one empty step, not -5/s. *)
  Alcotest.(check (list (float 1e-9))) "clamped per-step rates" [ 10.0; 0.0; 3.0 ] rates;
  match Obs.Timeseries.windowed_rate ts ~window_ns:wide_window "c" with
  | Some r ->
      Alcotest.(check (float 1e-9)) "window sums clamped deltas" (13.0 /. 3.0) r
  | None -> Alcotest.fail "windowed rate missing"

let test_timeseries_window_excludes_old_samples () =
  let ts = ts_with_fake ~retention:16 () in
  (* counter at t=0..5: value jumps by 100 early, then by 1 per step *)
  List.iter
    (fun v -> Obs.Timeseries.record ts [ ("c", Obs.Metrics.Counter v) ])
    [ 0; 100; 101; 102; 103; 104 ];
  (* A 2 s window ending at t=5 sees only the 1/s tail, not the jump. *)
  match Obs.Timeseries.windowed_rate ts ~window_ns:(Int64.mul 2L second_ns) "c" with
  | Some r -> Alcotest.(check (float 1e-9)) "old delta excluded" 1.0 r
  | None -> Alcotest.fail "windowed rate missing"

let test_timeseries_gauge_series () =
  let ts = ts_with_fake ~retention:8 () in
  List.iter
    (fun v -> Obs.Timeseries.record ts [ ("g", Obs.Metrics.Gauge v) ])
    [ 1.0; 4.0; 2.0 ];
  let vs =
    List.map
      (fun p -> p.Obs.Timeseries.p_v)
      (Obs.Timeseries.gauge_series ts ~window_ns:wide_window "g")
  in
  Alcotest.(check (list (float 1e-9))) "gauges as stored" [ 1.0; 4.0; 2.0 ] vs

let test_timeseries_windowed_quantile_agrees () =
  with_obs_enabled @@ fun () ->
  let bounds = Array.init 20 (fun i -> 5.0 *. float_of_int (i + 1)) in
  let h = Obs.Metrics.histogram "tsq.sample" ~buckets:bounds in
  let ts = ts_with_fake ~retention:8 () in
  (* Noise observed before the baseline sample must not leak into the
     windowed estimate. *)
  for _ = 1 to 50 do
    Obs.Metrics.observe h 99.0
  done;
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  let state = ref 12345 in
  let sample =
    Array.init 200 (fun _ ->
        state := ((!state * 1103515245) + 12347) land 0x3FFFFFFF;
        float_of_int (!state mod 10_000) /. 100.0)
  in
  (* Spread the observations over two steps so the window accumulates
     more than one bucket delta. *)
  Array.iteri
    (fun i v ->
      Obs.Metrics.observe h v;
      if i = 99 then Obs.Timeseries.record ts (Obs.Metrics.snapshot ()))
    sample;
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  let sorted = Array.copy sample in
  Array.sort compare sorted;
  (match Obs.Timeseries.windowed_count ts ~window_ns:(Int64.mul 2L second_ns) "tsq.sample" with
  | Some n -> Alcotest.(check int) "window counts only its own observations" 200 n
  | None -> Alcotest.fail "windowed count missing");
  List.iter
    (fun q ->
      match
        Obs.Timeseries.windowed_quantile ts
          ~window_ns:(Int64.mul 2L second_ns)
          ~q "tsq.sample"
      with
      | None -> Alcotest.fail "estimate missing"
      | Some est ->
          let exact = exact_quantile sorted q in
          Alcotest.(check bool)
            (Printf.sprintf "q=%g est %.2f vs exact %.2f" q est exact)
            true
            (Float.abs (est -. exact) <= 5.0))
    [ 0.5; 0.9; 0.95; 0.99 ]

(* Over any per-step observations in [0, 100] and any window, the
   windowed estimate lies within one bucket width of the window's exact
   nearest-rank quantile: the observation of rank ceil(q·n) sits in the
   very bucket the estimator interpolates inside. *)
let prop_windowed_quantile_within_a_bucket =
  let width = 10.0 in
  let bounds = Array.init 10 (fun i -> width *. float_of_int (i + 1)) in
  QCheck.Test.make ~name:"windowed quantile within one bucket of exact" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 8)
           (list_of_size Gen.(int_range 0 12) (float_range 0.0 100.0)))
        (int_range 1 9) (float_range 0.0 1.0))
    (fun (steps, k, q) ->
      with_obs_enabled @@ fun () ->
      let h = Obs.Metrics.histogram "tsq.prop" ~buckets:bounds in
      let ts = ts_with_fake ~retention:16 () in
      Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
      List.iter
        (fun obs ->
          List.iter (Obs.Metrics.observe h) obs;
          Obs.Timeseries.record ts (Obs.Metrics.snapshot ()))
        steps;
      (* A k-second window ending at the newest sample covers the last
         k steps. *)
      let inside =
        List.filteri (fun i _ -> i >= List.length steps - k) steps
        |> List.concat |> Array.of_list
      in
      Array.sort compare inside;
      let n = Array.length inside in
      match
        Obs.Timeseries.windowed_quantile ts ~window_ns:(Int64.mul (Int64.of_int k) second_ns)
          ~q "tsq.prop"
      with
      | None -> n = 0
      | Some est ->
          let exact = inside.(max 1 (int_of_float (Float.ceil (q *. float_of_int n))) - 1) in
          n > 0 && Float.abs (est -. exact) <= width +. 1e-9)

let test_timeseries_quantile_series_skips_empty_steps () =
  with_obs_enabled @@ fun () ->
  let h = Obs.Metrics.histogram "tsq.sparse" ~buckets:[| 1.0; 10.0; 100.0 |] in
  let ts = ts_with_fake ~retention:8 () in
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  Obs.Metrics.observe h 5.0;
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  (* one idle step: no observations *)
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  Obs.Metrics.observe h 50.0;
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  let pts = Obs.Timeseries.quantile_series ts ~window_ns:wide_window ~q:0.5 "tsq.sparse" in
  Alcotest.(check int) "idle step yields no point" 2 (List.length pts)

let test_timeseries_rejects_bad_shape () =
  (try
     ignore (Obs.Timeseries.create ~retention:1 ());
     Alcotest.fail "retention 1 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Obs.Timeseries.create ~step_ns:0L ());
    Alcotest.fail "step 0 accepted"
  with Invalid_argument _ -> ()

(* --- SLO alerts --- *)

let test_alerts_parse_rules () =
  (match Obs.Alerts.parse_rule "server.request.ms:p99<50:5m" with
  | Ok r ->
      Alcotest.(check string) "metric" "server.request.ms" r.Obs.Alerts.r_metric;
      (match r.Obs.Alerts.r_agg with
      | Obs.Alerts.Quantile q -> Alcotest.(check (float 1e-9)) "quantile" 0.99 q
      | _ -> Alcotest.fail "agg not a quantile");
      Alcotest.(check bool) "cmp" true (r.Obs.Alerts.r_cmp = Obs.Alerts.Lt);
      Alcotest.(check (float 1e-9)) "threshold" 50.0 r.Obs.Alerts.r_threshold;
      Alcotest.(check int64) "window" 300_000_000_000L r.Obs.Alerts.r_window_ns
  | Error e -> Alcotest.fail e);
  (match Obs.Alerts.parse_rule "server.requests:rate>1.5:30s" with
  | Ok r ->
      Alcotest.(check bool) "rate agg" true (r.Obs.Alerts.r_agg = Obs.Alerts.Rate);
      Alcotest.(check bool) "gt" true (r.Obs.Alerts.r_cmp = Obs.Alerts.Gt);
      Alcotest.(check int64) "30s" 30_000_000_000L r.Obs.Alerts.r_window_ns
  | Error e -> Alcotest.fail e);
  (match Obs.Alerts.parse_rule "gc.heap_words:value<1e9:45" with
  | Ok r ->
      Alcotest.(check bool) "value agg" true (r.Obs.Alerts.r_agg = Obs.Alerts.Value);
      Alcotest.(check int64) "bare seconds" 45_000_000_000L r.Obs.Alerts.r_window_ns
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Obs.Alerts.parse_rule bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
      | Error _ -> ())
    [
      "";
      "no-colons";
      "m:p99<50";
      "m:p99<50:5m:extra";
      ":p99<50:5m";
      "m:p99=50:5m";
      "m:p99<>50:5m";
      "m:pword<50:5m";
      "m:p0<50:5m";
      "m:p100<50:5m";
      "m:p99<abc:5m";
      "m:p99<50:0s";
      "m:p99<50:-5m";
      "m:p99<50:5y";
      (* Past 2^63 ns (~292 years) or below 1 ns: no int64 window. *)
      "m:p99<50:1e300";
      "m:p99<50:9.3e9s";
      "m:p99<50:1e-12s";
    ]

(* Rules built from the grammar's pieces, junk included (numbers at the
   edges, every unit, good and bad aggregators and comparisons), and
   arbitrary strings. *)
let rule_gen =
  let open QCheck.Gen in
  let number =
    oneof
      [ oneofl
          [ "0"; "-0"; "-5"; "1e300"; "-1e300"; "nan"; "-nan"; "inf"; "-inf"; "0x1p4"; "0x10";
            "-0x1p-3"; "1e-12"; "1e-9"; "9.223372036854775e9"; "9.223372036854776e9"; "9.3e9";
            "2562047.788015215"; "153722867.28091288"; ""; "." ];
        map string_of_int (int_range (-100) 100_000);
        map (Printf.sprintf "%h") float;
        map (Printf.sprintf "%.17g") float ]
  in
  let structured =
    let* metric = oneofl [ "server.request.ms"; "m"; "" ] in
    let* agg = oneofl [ "p0"; "p50"; "p100"; "p99.9"; "rate"; "value"; "p"; "pword"; ""; "max" ] in
    let* cmp = oneofl [ "<"; ">"; "<>"; "=" ] in
    let* threshold = number in
    let* window = number in
    let+ unit_ = oneofl [ "s"; "m"; "h"; ""; "y" ] in
    String.concat "" [ metric; ":"; agg; cmp; threshold; ":"; window; unit_ ]
  in
  frequency [ (6, structured); (1, string_printable); (1, string ?gen:None) ]

(* Neither parser raises; an accepted window is 1 to [Int64.max_int] ns;
   an accepted rule has a finite threshold and its window field's
   window. *)
let prop_rule_grammar =
  QCheck.Test.make ~name:"rule and window grammar" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") rule_gen)
    (fun src ->
      let window_ok w =
        match Obs.Alerts.parse_window w with Ok ns -> Int64.compare ns 1L >= 0 | Error _ -> true
      in
      let window_field =
        match String.split_on_char ':' src with [ _; _; w ] -> Some w | _ -> None
      in
      window_ok src
      && Option.fold ~none:true ~some:window_ok window_field
      &&
      match Obs.Alerts.parse_rule src with
      | Error _ -> true
      | Ok r ->
          Float.is_finite r.Obs.Alerts.r_threshold
          && Option.map Obs.Alerts.parse_window window_field = Some (Ok r.Obs.Alerts.r_window_ns))

let test_alerts_fire_and_resolve () =
  with_obs_enabled @@ fun () ->
  with_log_captured @@ fun buf ->
  let h = Obs.Metrics.histogram "al.ms" ~buckets:[| 1.0; 10.0; 100.0 |] in
  let ts = ts_with_fake ~retention:16 () in
  let rule =
    match Obs.Alerts.parse_rule "al.ms:p99<10:4s" with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let alerts = Obs.Alerts.create [ rule ] in
  let firing_gauge () =
    match List.assoc_opt "obs.alerts.firing" (Obs.Metrics.snapshot ()) with
    | Some (Obs.Metrics.Gauge v) -> v
    | _ -> -1.0
  in
  (* Healthy traffic: fast observations, objective holds. *)
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  Obs.Metrics.observe h 0.5;
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  Obs.Alerts.evaluate alerts ts;
  (match Obs.Alerts.statuses alerts with
  | [ st ] ->
      Alcotest.(check bool) "starts ok" true (st.Obs.Alerts.st_state = Obs.Alerts.Ok_state)
  | _ -> Alcotest.fail "one status expected");
  Alcotest.(check (float 1e-9)) "gauge 0 while ok" 0.0 (firing_gauge ());
  (* Slow burst: both long and short windows breach -> firing. *)
  for _ = 1 to 20 do
    Obs.Metrics.observe h 90.0
  done;
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  Obs.Alerts.evaluate alerts ts;
  (match Obs.Alerts.statuses alerts with
  | [ st ] ->
      Alcotest.(check bool) "fires" true (st.Obs.Alerts.st_state = Obs.Alerts.Firing);
      Alcotest.(check int) "one transition" 1 st.Obs.Alerts.st_transitions;
      (match st.Obs.Alerts.st_value with
      | Some v -> Alcotest.(check bool) "measured value breaches" true (v >= 10.0)
      | None -> Alcotest.fail "no measurement while firing")
  | _ -> Alcotest.fail "one status expected");
  Alcotest.(check (float 1e-9)) "gauge 1 while firing" 1.0 (firing_gauge ());
  Alcotest.(check bool) "firing logged" true
    (contains (Buffer.contents buf) "\"event\":\"alert.firing\"");
  Alcotest.(check bool) "firing logs at warn" true
    (contains (Buffer.contents buf) "\"level\":\"warn\"");
  (* Load stops: two idle samples clear the short window -> resolved. *)
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  Obs.Timeseries.record ts (Obs.Metrics.snapshot ());
  Obs.Alerts.evaluate alerts ts;
  (match Obs.Alerts.statuses alerts with
  | [ st ] ->
      Alcotest.(check bool) "resolves" true (st.Obs.Alerts.st_state = Obs.Alerts.Ok_state);
      Alcotest.(check int) "two transitions" 2 st.Obs.Alerts.st_transitions
  | _ -> Alcotest.fail "one status expected");
  Alcotest.(check int) "firing count back to zero" 0 (Obs.Alerts.firing_count alerts);
  Alcotest.(check (float 1e-9)) "gauge 0 after resolve" 0.0 (firing_gauge ());
  Alcotest.(check bool) "resolve logged" true
    (contains (Buffer.contents buf) "\"event\":\"alert.resolved\"")

let test_alerts_empty_timeseries_noop () =
  with_obs_enabled @@ fun () ->
  let ts = ts_with_fake () in
  let rule =
    match Obs.Alerts.parse_rule "x:p99<10:4s" with Ok r -> r | Error e -> Alcotest.fail e
  in
  let alerts = Obs.Alerts.create [ rule ] in
  Obs.Alerts.evaluate alerts ts;
  match Obs.Alerts.statuses alerts with
  | [ st ] ->
      Alcotest.(check bool) "still ok" true (st.Obs.Alerts.st_state = Obs.Alerts.Ok_state);
      Alcotest.(check int) "no transitions" 0 st.Obs.Alerts.st_transitions
  | _ -> Alcotest.fail "one status expected"

(* --- the float and string spellings, against the Printf originals --- *)

(* The writer's spellings before they called [caml_format_float]
   directly and stopped copying clean strings; kept as oracles. *)
let printf_finite_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let printf_number_repr v =
  if Float.is_nan v || v = Float.infinity || v = Float.neg_infinity then "null"
  else printf_finite_repr v

let printf_prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else printf_finite_repr v

let printf_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let same_float_spelling v =
  Obs.Json.number_repr v = printf_number_repr v
  && prom_float v = printf_prom_float v

(* Where the two branches meet (10^15, 2^53), the signed zeros, the
   subnormals and the values JSON cannot spell. *)
let float_edge_cases =
  let around x = [ Float.pred x; x; Float.succ x ] in
  let signed xs = xs @ List.map Float.neg xs in
  [ 0.0; -0.0; Float.nan; Float.neg Float.nan; Float.infinity; Float.neg_infinity ]
  @ signed
      (around 1e15 @ around 0x1p53 @ around Float.min_float
      @ [ Int64.float_of_bits 1L; Int64.float_of_bits 0x000f_ffff_ffff_ffffL;
          Float.max_float; Float.epsilon; 0.1; 1.0 /. 3.0 ])

let test_float_spelling_edge_cases () =
  List.iter
    (fun v ->
      Alcotest.(check string) (Printf.sprintf "number_repr %h" v) (printf_number_repr v)
        (Obs.Json.number_repr v);
      Alcotest.(check string) (Printf.sprintf "prom_float %h" v) (printf_prom_float v)
        (prom_float v))
    float_edge_cases

let float_gen =
  let open QCheck.Gen in
  oneof
    [ map Int64.float_of_bits int64;
      float;
      map float_of_int (int_range (-1_000_000) 1_000_000);
      map2 (fun m e -> Float.ldexp (float_of_int m) e) (int_range (-9999) 9999) (int_range (-60) 60);
      oneofl float_edge_cases ]

let prop_float_spelling =
  QCheck.Test.make ~name:"number_repr and prom_float = Printf spellings" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") float_gen)
    same_float_spelling

let escape_gen =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (6, printable);
        (1, oneofl [ '"'; '\\'; '\127' ]);
        (1, map Char.chr (int_range 0 31));
        (1, map Char.chr (int_range 128 255)) ]
  in
  oneof
    [ string_size ~gen:byte (int_range 0 40);
      map (String.concat "")
        (list_size (int_range 0 8)
           (oneofl
              [ "plain"; "\xc3\xa9"; "\xe6\x97\xa5\xe6\x9c\xac"; "\xf0\x9f\x8c\x9e"; "\\"; "\"";
                "\n"; "\x00" ])) ]

let prop_escape =
  QCheck.Test.make ~name:"escape = Printf escape; clean strings uncopied" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") escape_gen)
    (fun s ->
      let clean = String.for_all (fun c -> c <> '"' && c <> '\\' && Char.code c >= 0x20) s in
      Obs.Json.escape s = printf_escape s && ((not clean) || Obs.Json.escape s == s))

(* Finite floats only: the writer's one documented loss is a non-finite
   number, which becomes [null]. *)
let finite_float_gen =
  let open QCheck.Gen in
  let finite_of_bits b =
    let v = Int64.float_of_bits b in
    (* Clearing the top exponent bit leaves an exponent below the
       all-ones pattern of inf and NaN. *)
    if Float.is_finite v then v else Int64.float_of_bits (Int64.logand b 0xBFFF_FFFF_FFFF_FFFFL)
  in
  oneof
    [ oneofl (List.filter Float.is_finite float_edge_cases);
      map2 ( +. ) (oneofl [ 1e15; -1e15; 0x1p53; -0x1p53 ]) (map float_of_int (int_range (-64) 64));
      map finite_of_bits int64 ]

let json_doc_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun v -> Obs.Json.Number v) finite_float_gen;
        map (fun s -> Obs.Json.String s) escape_gen ]
  in
  let rec doc depth =
    if depth = 0 then scalar
    else
      let sub = doc (depth - 1) in
      frequency
        [ (2, scalar);
          (1, map (fun l -> Obs.Json.Array l) (list_size (int_range 0 4) sub));
          (1, map (fun l -> Obs.Json.Object l) (list_size (int_range 0 4) (pair escape_gen sub))) ]
  in
  doc 3

let prop_json_roundtrip =
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  QCheck.Test.make ~name:"parse (to_string ~pretty v) = v, numbers bit for bit" ~count:2000
    (QCheck.make ~print:(fun v -> String.escaped (Obs.Json.to_string v)) json_doc_gen)
    (fun v ->
      List.for_all
        (fun pretty ->
          match Obs.Json.parse (Obs.Json.to_string ~pretty v) with
          | Ok v' -> json_equal_by same_bits v v'
          | Error _ -> false)
        [ false; true ])

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [ Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
          Alcotest.test_case "shard dispersion" `Quick test_shard_dispersion;
          Alcotest.test_case "sharded contention exact" `Quick
            test_counter_sharded_contention;
          Alcotest.test_case "disabled no-op" `Quick test_counter_disabled_is_noop;
          Alcotest.test_case "gauge" `Quick test_gauge_set;
          Alcotest.test_case "kind clash" `Quick test_kind_clash_rejected;
          Alcotest.test_case "histogram boundaries" `Quick test_histogram_bucket_boundaries;
          Alcotest.test_case "histogram bad buckets" `Quick test_histogram_rejects_bad_buckets ] );
      ( "quantile",
        [ Alcotest.test_case "empty is none" `Quick test_quantile_empty_is_none;
          Alcotest.test_case "single observation" `Quick test_quantile_single_observation;
          Alcotest.test_case "overflow collapses" `Quick test_quantile_overflow_collapses;
          Alcotest.test_case "interpolation" `Quick test_quantile_interpolates_within_bucket;
          Alcotest.test_case "tracks exact quantiles" `Quick
            test_quantile_tracks_exact_on_sample ] );
      ( "log",
        [ Alcotest.test_case "line golden" `Quick test_log_line_golden;
          Alcotest.test_case "disabled is silent" `Quick test_log_disabled_is_silent;
          Alcotest.test_case "level filter" `Quick test_log_level_filter;
          Alcotest.test_case "carries trace context" `Quick test_log_carries_trace_context ] );
      ( "trace",
        [ Alcotest.test_case "tags spans" `Quick test_with_trace_tags_spans;
          Alcotest.test_case "nests and restores" `Quick test_with_trace_nests_and_restores;
          Alcotest.test_case "reaches worker domains" `Quick
            test_with_trace_reaches_worker_domains;
          Alcotest.test_case "isolated across domains" `Quick
            test_trace_isolated_across_domains;
          Alcotest.test_case "in exports" `Quick test_trace_in_exports ] );
      ( "spans",
        [ Alcotest.test_case "nesting under fake clock" `Quick test_nested_spans_fake_clock;
          Alcotest.test_case "end on raise" `Quick test_span_end_recorded_on_raise;
          Alcotest.test_case "ring overflow" `Quick test_span_ring_overflow;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_span_records_nothing;
          Alcotest.test_case "ring wrap keeps pairing" `Quick test_ring_wrap_keeps_pairing;
          Alcotest.test_case "worker domain spans" `Quick test_worker_domain_spans;
          Alcotest.test_case "parallel engine spans" `Quick test_parallel_engine_spans ] );
      ( "exporters",
        [ Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "chrome trace golden" `Quick test_chrome_trace_golden;
          Alcotest.test_case "json_float non-finite" `Quick test_json_float_nonfinite;
          Alcotest.test_case "json snapshot non-finite" `Quick test_json_snapshot_nonfinite_gauge;
          Alcotest.test_case "prometheus non-finite" `Quick test_prometheus_nonfinite_gauge;
          Alcotest.test_case "prometheus histogram invariants" `Quick
            test_prometheus_histogram_invariants;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "json snapshot golden" `Quick test_json_snapshot_golden;
          Alcotest.test_case "report table" `Quick test_report_table ] );
      ( "resource",
        [ Alcotest.test_case "gauges sampled" `Quick test_resource_gauges;
          Alcotest.test_case "disabled no-op" `Quick test_resource_disabled_is_noop ] );
      ( "progress",
        [ Alcotest.test_case "meter renders" `Quick test_progress_meter;
          Alcotest.test_case "disabled is silent" `Quick test_progress_disabled_is_silent;
          Alcotest.test_case "concurrent runs stay independent" `Quick
            test_progress_concurrent_runs;
          Alcotest.test_case "through trial drivers" `Quick test_progress_through_trial_drivers;
          Alcotest.test_case "tty sink gates on isatty" `Quick test_progress_tty_sink_gates;
          Alcotest.test_case "injected sink not gated" `Quick
            test_progress_injected_sink_not_gated ] );
      ( "json",
        [ Alcotest.test_case "parse structure" `Quick test_json_parse_structure;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "escape roundtrip" `Quick test_json_escape_roundtrip;
          Alcotest.test_case "bench document" `Quick test_json_parses_bench_document;
          Alcotest.test_case "to_string roundtrip" `Quick test_json_to_string_roundtrip;
          Alcotest.test_case "compact golden" `Quick test_json_to_string_compact_golden;
          Alcotest.test_case "non-finite encodes null" `Quick
            test_json_to_string_nonfinite_is_null;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "float spelling edge cases" `Quick test_float_spelling_edge_cases;
          QCheck_alcotest.to_alcotest prop_float_spelling;
          QCheck_alcotest.to_alcotest prop_escape;
          QCheck_alcotest.to_alcotest prop_json_roundtrip ] );
      ( "pipeline",
        [ Alcotest.test_case "montecarlo metrics" `Quick test_montecarlo_metrics_flow;
          Alcotest.test_case "determinism" `Quick test_montecarlo_determinism_under_instrumentation;
          Alcotest.test_case "batched spans and counters" `Quick test_montecarlo_batched_obs ] );
      ( "timeseries",
        [ Alcotest.test_case "ring wrap-around" `Quick test_timeseries_ring_wraparound;
          Alcotest.test_case "counter reset clamps" `Quick
            test_timeseries_counter_reset_clamps;
          Alcotest.test_case "window excludes old samples" `Quick
            test_timeseries_window_excludes_old_samples;
          Alcotest.test_case "gauge series" `Quick test_timeseries_gauge_series;
          Alcotest.test_case "windowed quantile tracks exact" `Quick
            test_timeseries_windowed_quantile_agrees;
          Alcotest.test_case "quantile series skips empty steps" `Quick
            test_timeseries_quantile_series_skips_empty_steps;
          Alcotest.test_case "rejects bad shape" `Quick test_timeseries_rejects_bad_shape;
          QCheck_alcotest.to_alcotest prop_windowed_quantile_within_a_bucket ] );
      ( "alerts",
        [ Alcotest.test_case "rule grammar" `Quick test_alerts_parse_rules;
          Alcotest.test_case "fire and resolve" `Quick test_alerts_fire_and_resolve;
          Alcotest.test_case "empty timeseries is a no-op" `Quick
            test_alerts_empty_timeseries_noop;
          QCheck_alcotest.to_alcotest prop_rule_grammar ] );
    ]
