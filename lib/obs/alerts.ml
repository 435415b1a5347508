(* SLO burn-rate alerting over a {!Timeseries}.

   A rule is the *objective* — "server.request.ms:p99<50:5m" reads
   "the windowed p99 of server.request.ms must stay under 50 (ms) over
   a 5-minute window".  An alert fires when the objective is violated,
   and multi-window evaluation keeps it honest: the rule's window is
   the LONG window (sustained breach) and a fifth of it (clamped to at
   least one sampler step) is the SHORT window (still breaching now).
   Firing requires both, so one slow request five minutes ago cannot
   page; resolving requires only the short window to recover, so the
   alert clears as soon as the bleeding stops instead of waiting for
   the long window to drain.

   Transitions are the observable product: each one bumps a counter,
   emits a structured {!Log} line (alert.firing / alert.resolved) and
   updates the [obs.alerts.firing] gauge, so /metrics, the JSONL log
   and /alertz all tell the same story.  Evaluation timestamps come
   from the timeseries' newest sample, never the wall clock, so a test
   driving an injected clock sees deterministic [since] values.

   Domain-safety: [evaluate] runs on the sampler domain while /alertz
   reads [statuses] from a worker, so entry state is mutex-guarded. *)

type agg = Quantile of float | Rate | Value

type cmp = Lt | Gt

type rule = {
  r_src : string;
  r_metric : string;
  r_agg : agg;
  r_cmp : cmp;
  r_threshold : float;
  r_window_ns : int64;
}

let agg_to_string = function
  | Quantile q -> Printf.sprintf "p%g" (q *. 100.0)
  | Rate -> "rate"
  | Value -> "value"

let cmp_to_string = function Lt -> "<" | Gt -> ">"

let window_s rule = Int64.to_float rule.r_window_ns /. 1e9

(* "5m" / "90s" / "2h" / bare seconds. *)
let parse_window s =
  let num, unit_ns =
    match String.length s with
    | 0 -> ("", None)
    | n -> (
        match s.[n - 1] with
        | 's' -> (String.sub s 0 (n - 1), Some 1_000_000_000L)
        | 'm' -> (String.sub s 0 (n - 1), Some 60_000_000_000L)
        | 'h' -> (String.sub s 0 (n - 1), Some 3_600_000_000_000L)
        | _ -> (s, Some 1_000_000_000L))
  in
  match (float_of_string_opt num, unit_ns) with
  | Some v, Some ns when v > 0.0 && Float.is_finite v ->
      Ok (Int64.of_float (v *. Int64.to_float ns))
  | _ -> Error (Printf.sprintf "bad window %S (expected e.g. 30s, 5m, 1h)" s)

let parse_agg s =
  match s with
  | "rate" -> Ok Rate
  | "value" -> Ok Value
  | _ when String.length s > 1 && s.[0] = 'p' -> (
      match float_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some pct when pct > 0.0 && pct < 100.0 -> Ok (Quantile (pct /. 100.0))
      | _ -> Error (Printf.sprintf "bad quantile %S (expected p50, p95, p99.9, ...)" s))
  | _ -> Error (Printf.sprintf "bad aggregator %S (expected pNN, rate or value)" s)

let parse_rule src =
  (* METRIC:AGG(<|>)THRESHOLD:WINDOW — the metric name itself never
     contains ':' (the registry uses dots). *)
  match String.split_on_char ':' src with
  | [ metric; cond; window ] when metric <> "" -> (
      let cmp_at =
        let lt = String.index_opt cond '<' and gt = String.index_opt cond '>' in
        match (lt, gt) with
        | Some i, None -> Some (i, Lt)
        | None, Some i -> Some (i, Gt)
        | _ -> None
      in
      match cmp_at with
      | None -> Error (Printf.sprintf "rule %S: condition needs one < or >" src)
      | Some (i, cmp) -> (
          let agg_s = String.sub cond 0 i in
          let thresh_s = String.sub cond (i + 1) (String.length cond - i - 1) in
          match (parse_agg agg_s, float_of_string_opt thresh_s, parse_window window) with
          | Error e, _, _ | _, _, Error e -> Error (Printf.sprintf "rule %S: %s" src e)
          | _, None, _ -> Error (Printf.sprintf "rule %S: bad threshold %S" src thresh_s)
          | Ok agg, Some threshold, Ok window_ns when Float.is_finite threshold ->
              Ok
                {
                  r_src = src;
                  r_metric = metric;
                  r_agg = agg;
                  r_cmp = cmp;
                  r_threshold = threshold;
                  r_window_ns = window_ns;
                }
          | _ -> Error (Printf.sprintf "rule %S: bad threshold %S" src thresh_s)))
  | _ -> Error (Printf.sprintf "rule %S: expected METRIC:CONDITION:WINDOW" src)

type state = Ok_state | Firing

let state_to_string = function Ok_state -> "ok" | Firing -> "firing"

type status = {
  st_rule : rule;
  st_state : state;
  st_since_ns : int64 option;  (* newest-sample time the state began *)
  st_transitions : int;
  st_value : float option;  (* long-window value at last evaluation *)
  st_short_value : float option;
}

type entry = {
  e_rule : rule;
  mutable e_state : state;
  mutable e_since_ns : int64 option;
  mutable e_transitions : int;
  mutable e_value : float option;
  mutable e_short : float option;
}

type t = { entries : entry list; lock : Mutex.t; g_firing : Metrics.gauge }

let create rules =
  {
    entries =
      List.map
        (fun r ->
          {
            e_rule = r;
            e_state = Ok_state;
            e_since_ns = None;
            e_transitions = 0;
            e_value = None;
            e_short = None;
          })
        rules;
    lock = Mutex.create ();
    g_firing = Metrics.gauge "obs.alerts.firing";
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let rules t = List.map (fun e -> e.e_rule) t.entries

let measure ts ~window_ns rule =
  match rule.r_agg with
  | Quantile q -> Timeseries.windowed_quantile ts ~window_ns ~q rule.r_metric
  | Rate -> Timeseries.windowed_rate ts ~window_ns rule.r_metric
  | Value -> (
      (* A gauge is already instantaneous; "over the window" means its
         latest reading inside it. *)
      match List.rev (Timeseries.gauge_series ts ~window_ns rule.r_metric) with
      | p :: _ -> Some p.Timeseries.p_v
      | [] -> None)

let objective_holds rule v =
  match rule.r_cmp with Lt -> v < rule.r_threshold | Gt -> v > rule.r_threshold

(* Breached only when there is a measurement AND it violates the
   objective: an empty window (no traffic) is healthy, which is what
   lets a breached latency SLO resolve once load stops. *)
let breached rule = function None -> false | Some v -> not (objective_holds rule v)

let log_transition ~now_ns ~firing e value =
  let open Json in
  let fields =
    [
      ("rule", String e.e_rule.r_src);
      ("metric", String e.e_rule.r_metric);
      ("agg", String (agg_to_string e.e_rule.r_agg));
      ("objective",
       String
         (Printf.sprintf "%s%s%g"
            (agg_to_string e.e_rule.r_agg)
            (cmp_to_string e.e_rule.r_cmp)
            e.e_rule.r_threshold));
      ("window_s", Number (window_s e.e_rule));
      ("value", match value with Some v -> Number v | None -> Null);
      ("ts_sample_ns", Number (Int64.to_float now_ns));
    ]
  in
  if firing then Log.warn "alert.firing" fields else Log.info "alert.resolved" fields

let short_window_ns ts rule =
  (* A fifth of the long window, but never finer than one sampler step
     (below that there is at most one sample and no delta to judge);
     two steps so the short window always spans at least one delta. *)
  let floor_ns = Int64.mul 2L (Timeseries.step_ns ts) in
  let fifth = Int64.div rule.r_window_ns 5L in
  if Int64.compare fifth floor_ns < 0 then floor_ns else fifth

let evaluate t ts =
  match Timeseries.latest ts with
  | None -> ()
  | Some (now_ns, _) ->
      let transitions =
        locked t @@ fun () ->
        List.filter_map
          (fun e ->
            let rule = e.e_rule in
            let long = measure ts ~window_ns:rule.r_window_ns rule in
            let short = measure ts ~window_ns:(short_window_ns ts rule) rule in
            e.e_value <- long;
            e.e_short <- short;
            if e.e_since_ns = None then e.e_since_ns <- Some now_ns;
            let fire = breached rule long && breached rule short in
            match (e.e_state, fire, breached rule short) with
            | Ok_state, true, _ ->
                e.e_state <- Firing;
                e.e_since_ns <- Some now_ns;
                e.e_transitions <- e.e_transitions + 1;
                Some (e, true, long)
            | Firing, _, false ->
                e.e_state <- Ok_state;
                e.e_since_ns <- Some now_ns;
                e.e_transitions <- e.e_transitions + 1;
                Some (e, false, long)
            | _ -> None)
          t.entries
      in
      (* Log outside the lock: sinks may block on I/O. *)
      List.iter (fun (e, firing, v) -> log_transition ~now_ns ~firing e v) transitions;
      let firing =
        locked t @@ fun () ->
        List.length (List.filter (fun e -> e.e_state = Firing) t.entries)
      in
      Metrics.set t.g_firing (float_of_int firing)

let statuses t =
  locked t @@ fun () ->
  List.map
    (fun e ->
      {
        st_rule = e.e_rule;
        st_state = e.e_state;
        st_since_ns = e.e_since_ns;
        st_transitions = e.e_transitions;
        st_value = e.e_value;
        st_short_value = e.e_short;
      })
    t.entries

let firing_count t =
  locked t @@ fun () ->
  List.length (List.filter (fun e -> e.e_state = Firing) t.entries)
