(** Descriptive statistics for Monte-Carlo outputs and distribution
    figures. *)

val mean : float list -> float
(** 0 for []. *)

val mean_stddev : float list -> float * float
(** The mean and the {e population} standard deviation (÷n, not the
    ÷(n−1) sample estimator; 0 for fewer than 2 samples).  The choice is
    load-bearing: every published mean±sd table was produced with ÷n, so
    changing the estimator silently shifts golden values — don't "fix"
    it. *)

val percentile : float list -> p:float -> float
(** Nearest-rank percentile, [p] in [[0, 100]].  @raise Invalid_argument
    on an empty list or out-of-range [p]. *)

val median : float list -> float

val cdf_points : float list -> (float * float) list
(** Empirical CDF steps [(value, fraction ≤ value)], values ascending.
    [] for []. *)
