(** Process-global metrics registry: named counters, gauges and
    fixed-bucket histograms.

    Registration ([counter] / [gauge] / [histogram]) is idempotent and
    cheap, so instrumented modules register their metrics once at module
    initialisation.  Mutations ([incr], [add], [set], [observe]) are
    no-ops unless the layer is enabled (see {!Control}), costing a single
    branch on the disabled path.

    [snapshot] freezes the registry into a plain, order-stable value that
    exporters consume.

    The registry is domain-safe: mutations are [Atomic] (counters are
    sharded per domain so hot counters like [rng.draws] don't serialize
    the parallel trial engine), and registration/snapshot/reset take a
    mutex.  Totals are exact — a counter's value is the sum over its
    shards — so sequential and Domain-parallel runs of the same seeded
    workload report identical counts. *)

type counter
type gauge
type histogram

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { bounds : float array; counts : int array; sum : float; count : int }
      (** [counts] has one slot per bound (value <= bound, first match
          wins) plus a final overflow slot. *)

type snapshot = (string * value) list
(** Sorted by metric name. *)

val counter : string -> counter
(** Find-or-create. @raise Invalid_argument if the name is already
    registered as a different kind. *)

val gauge : string -> gauge

val histogram : string -> buckets:float array -> histogram
(** [buckets] are strictly increasing upper bounds; an implicit overflow
    bucket catches everything above the last bound.
    @raise Invalid_argument on empty or non-increasing [buckets], or if
    the name exists with different buckets. *)

val shard_of_id : int -> int
(** Shard index a given domain id maps to — a mixed (Fibonacci) hash of
    the id, not a plain mask, because sequentially allocated domain ids
    would otherwise collide pairwise mod the shard count.  Exposed for
    tests asserting shard dispersion. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val snapshot : unit -> snapshot

val find : snapshot -> string -> value option
(** Look up one metric in a frozen snapshot by registry name. *)

val quantile : bounds:float array -> counts:int array -> float -> float option
(** [quantile ~bounds ~counts q] estimates the [q]-quantile (0 ≤ q ≤ 1)
    of a histogram from its bucket counts, Prometheus-style: locate the
    bucket holding rank [q·total] and interpolate linearly inside it
    (observations assumed uniform within a bucket).  [counts] is the
    snapshot layout — one slot per bound plus the overflow slot.
    Returns [None] on an empty histogram.  A quantile landing in the
    overflow bucket collapses to the last finite bound.
    @raise Invalid_argument if [q] is outside [0, 1] or the array
    lengths disagree. *)

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). *)
