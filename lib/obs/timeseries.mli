(** Windowed time-series over the cumulative metrics registry.

    A [t] is a fixed-size ring of {!Metrics.snapshot}s taken on a fixed
    step (a sampler calls {!sample} once per step; one-shot consumers
    may call it on demand).  Windowed figures are derived at query time
    from the stored cumulative samples:

    - counters → per-step deltas and rates ({!rate_series},
      {!windowed_rate});
    - histograms → per-step bucket deltas fed to {!Metrics.quantile}
      for windowed p50/p95/p99 ({!quantile_series},
      {!windowed_quantile});
    - gauges → read as stored ({!gauge_series}).

    Deltas are clamped at zero, so a counter reset mid-window reads as
    one empty step instead of a huge negative rate; window totals sum
    the clamped per-step deltas rather than subtracting endpoints.

    Domain-safe: the ring is mutex-guarded, so one sampler domain and
    any number of querying domains (the /varz handler runs on server
    workers) can share a [t].  Queries never block the metrics hot
    path — they read frozen snapshots. *)

type t

val create : ?clock:Clock.t -> ?step_ns:int64 -> ?retention:int -> unit -> t
(** [create ()] — a ring of [retention] slots (default 600) intended to
    be sampled every [step_ns] (default 1 s).  [step_ns] is advisory
    metadata for consumers ({!step_ns}); timestamps always come from
    [clock] (default {!Clock.monotonic}) at {!record} time, so an
    irregular sampler degrades rates gracefully instead of lying.
    @raise Invalid_argument if [step_ns <= 0] or [retention < 2]. *)

val step_ns : t -> int64

val length : t -> int
(** Samples currently stored (caps at [retention]). *)

val sample : t -> unit
(** Freeze {!Metrics.snapshot}[ ()] into the ring now. *)

val record : t -> Metrics.snapshot -> unit
(** Store an arbitrary snapshot (timestamped from the clock) — the
    injection point for tests feeding synthetic registries. *)

val latest : t -> (int64 * Metrics.snapshot) option
(** Newest stored sample, as [(ts_ns, snapshot)]. *)

type point = { p_ts_ns : int64; p_v : float }

val rate_series : t -> window_ns:int64 -> string -> point list
(** Per-step rates (clamped delta / step seconds) of a counter over the
    window ending at the newest sample, oldest first.  Steps where the
    metric is absent on either side are skipped; empty with fewer than
    two samples. *)

val gauge_series : t -> window_ns:int64 -> string -> point list

val quantile_series : t -> window_ns:int64 -> q:float -> string -> point list
(** Per-step windowed quantile of a histogram: each point estimates [q]
    over that step's bucket deltas alone.  Steps with no new
    observations yield no point. *)

val windowed_rate : t -> window_ns:int64 -> string -> float option
(** Counter rate over the whole window: clamped per-step deltas summed,
    divided by the sampled span.  [None] without at least two samples
    or when the metric is not a counter in the newest snapshot. *)

val windowed_quantile : t -> window_ns:int64 -> q:float -> string -> float option
(** [q]-quantile over the window's accumulated bucket deltas via
    {!Metrics.quantile}.  [None] without two samples, when the metric
    is not a histogram, or when the window saw no observations. *)

val windowed_count : t -> window_ns:int64 -> string -> int option
(** Observations a histogram recorded inside the window (sum of clamped
    bucket deltas). *)
