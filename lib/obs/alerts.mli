(** SLO rules with multi-window burn-rate evaluation over a
    {!Timeseries}.

    A rule is written ["METRIC:AGGcmpTHRESHOLD:WINDOW"], e.g.
    ["server.request.ms:p99<50:5m"] — the condition states the
    *objective* (p99 must stay under 50 over a 5-minute window); the
    alert fires when the objective is violated.  Aggregators: [pNN]
    (windowed histogram quantile), [rate] (windowed counter rate per
    second), [value] (latest gauge reading in the window).  Windows take
    an [s]/[m]/[h] suffix (bare numbers mean seconds).

    Evaluation is multi-window: a rule fires only when both its long
    window and a short window (a fifth of it, floored at two sampler
    steps) are in breach, and resolves as soon as the short window
    recovers.  An empty window — no measurement — is healthy, so a
    breached latency alert resolves once traffic stops.  Transitions
    emit structured {!Log} lines ([alert.firing] at warn,
    [alert.resolved] at info) and the [obs.alerts.firing] gauge always
    holds the current firing count. *)

type agg = Quantile of float | Rate | Value
type cmp = Lt | Gt

type rule = {
  r_src : string;  (** the original rule string, verbatim *)
  r_metric : string;
  r_agg : agg;
  r_cmp : cmp;
  r_threshold : float;
  r_window_ns : int64;
}

val parse_rule : string -> (rule, string) result
(** Parse one ["METRIC:CONDITION:WINDOW"] rule. *)

val parse_window : string -> (int64, string) result
(** Parse a duration like ["30s"], ["5m"], ["1h"] or ["45"] (seconds)
    into nanoseconds.  [Error] unless the count of whole nanoseconds
    lies in [[1, Int64.max_int]].  Shared with the [/varz?window=] query
    grammar. *)

val window_s : rule -> float
val agg_to_string : agg -> string
val cmp_to_string : cmp -> string

type state = Ok_state | Firing

val state_to_string : state -> string
(** ["ok"] or ["firing"]. *)

type status = {
  st_rule : rule;
  st_state : state;
  st_since_ns : int64 option;
      (** sample-clock time the current state began *)
  st_transitions : int;  (** fire + resolve edges since creation *)
  st_value : float option;  (** long-window measurement at last eval *)
  st_short_value : float option;
}

type t

val create : rule list -> t
(** All rules start [Ok_state]; registers the [obs.alerts.firing]
    gauge. *)

val rules : t -> rule list

val evaluate : t -> Timeseries.t -> unit
(** Re-measure every rule against the timeseries and apply transitions.
    A no-op on an empty timeseries.  Timestamps come from the newest
    sample, so evaluation under an injected clock is deterministic.
    Domain-safe: state is mutex-guarded ([evaluate] on the sampler
    domain, {!statuses} from request workers). *)

val statuses : t -> status list
val firing_count : t -> int
