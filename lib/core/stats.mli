(** Descriptive statistics for Monte-Carlo outputs and distribution
    figures. *)

val mean : float list -> float
(** 0 for []. *)

val stddev : float list -> float
(** {e Population} standard deviation (÷n, not the ÷(n−1) sample
    estimator); 0 for fewer than 2 samples.  The choice is load-bearing:
    every published mean±sd table was produced with ÷n, so changing the
    estimator silently shifts golden values — don't "fix" it. *)

val mean_stddev : float list -> float * float

val percentile : float list -> p:float -> float
(** Nearest-rank percentile, [p] in [[0, 100]].  @raise Invalid_argument
    on an empty list or out-of-range [p]. *)

val median : float list -> float

val cdf_points : float list -> (float * float) list
(** Empirical CDF steps [(value, fraction ≤ value)], values ascending.
    [] for []. *)

val cdf : float list -> float -> float
(** [cdf l] sorts the samples once (into an array) and returns an
    evaluator answering each probe with a binary search — partially apply
    it when sweeping many thresholds over the same samples:
    [let f = Stats.cdf samples in List.map f thresholds] is
    O(n log n + q log n) where per-probe {!cdf_at} re-walks the list. *)

val cdf_at : float list -> float -> float
(** Fraction of samples ≤ the probe value: [cdf l x] for a single probe.
    Prefer {!cdf} when probing the same samples repeatedly. *)

val histogram : float list -> lo:float -> hi:float -> bins:int -> int array
(** Counts per equal-width bin; out-of-range samples clamp to the edge
    bins.  @raise Invalid_argument if [bins <= 0] or [hi <= lo]. *)
