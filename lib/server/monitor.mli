(** One server's self-monitoring state: the {!Obs.Timeseries} ring and
    {!Obs.Alerts} engine behind its [/statusz], [/varz], [/alertz] and
    [/dashboard], and the one windowed query [/varz] and [/dashboard]
    share.

    {!Service.create} makes one per server from its config, so servers
    in one process keep separate rings and SLO rules.  The metrics
    registry the ring samples stays process-wide. *)

type t = {
  ts : Obs.Timeseries.t;
  alerts : Obs.Alerts.t;
  step_s : float;  (** intended sampling step, seconds *)
}

val create :
  ?clock:Obs.Clock.t ->
  ?step_s:float ->
  ?retention:int ->
  ?rules:Obs.Alerts.rule list ->
  unit ->
  t
(** A fresh ring + alert engine (defaults: 1 s step, 600-slot
    retention, no rules, {!Obs.Clock.monotonic}).  Non-positive
    [step_s] falls back to 1 s. *)

val sample_now : t -> unit
(** One tick: snapshot the registry into the ring, then evaluate all
    alert rules.  Called by the service sampler domain each step and by
    the [/varz] and [/dashboard] handlers on every scrape. *)

(** {2 The windowed query} *)

type quantile = {
  label : string;  (** ["p50"], ["p95"] or ["p99"] *)
  estimate : float option;  (** over the whole window; [None] if it saw nothing *)
  q_points : Obs.Timeseries.point list;  (** one estimate per step *)
}

(** One metric's reading over the window, by the kind the newest
    sample holds it as. *)
type reading =
  | Counter of { rate_per_s : float option; points : Obs.Timeseries.point list }
      (** windowed rate and per-step rates *)
  | Gauge of { value : float; points : Obs.Timeseries.point list }
      (** newest value and the stored values *)
  | Histogram of { count : int option; quantiles : quantile list }
      (** observations in the window, and p50, p95, p99 in that order *)

type window = {
  window_ns : int64;
  samples : int;  (** samples in the ring, which may cover less than the window *)
  newest_ns : int64;  (** timestamp of the newest sample; [0L] on an empty ring *)
  series : (string * reading) list;
      (** every metric of the newest sample, in its (name) order *)
}

val window : t -> window_ns:int64 -> window
(** The window ending at the newest sample, read from the ring alone:
    it does not sample. *)
