(** Deterministic splittable pseudo-random numbers (SplitMix64).

    Every stochastic component (dataset synthesis, Monte-Carlo failure
    trials) draws from this generator so that experiments are reproducible
    bit-for-bit from a seed, independent of the OCaml stdlib [Random]
    state and of evaluation order across modules. *)

type t

val create : int -> t
(** Generator seeded from an integer. *)

val split : t -> t
(** An independent generator derived from (and advancing) the parent.
    Used to give each Monte-Carlo trial / dataset component its own
    stream. *)

val split_ith : t -> int -> t
(** [split_ith master i] is exactly the generator the (i+1)-th
    consecutive [split master] would produce, computed {e without}
    mutating [master] — a pure function of the master state and the
    index, so parallel workers can derive any trial's stream directly
    instead of pre-splitting an array of [trials] generators.
    Counts no draw against [rng.draws]; batch drivers account for their
    splits with {!note_draws}.  @raise Invalid_argument if [i < 0]. *)

val note_draws : int -> unit
(** Credit [n] draws to the [rng.draws] counter in one batched add.
    Kernels drawing through {!Raw} call this once per chunk so counter
    totals stay exactly equal to the per-draw-counted equivalent. *)

module Raw : sig
  (** Uncounted draws, bit-identical to their counted counterparts (same
      state advance, same output) but skipping the per-draw metrics
      increment — for hot loops that settle the count per batch with
      {!note_draws}. *)

  val next_int64 : t -> int64

  val fill_bernoulli : t -> float array -> idx:int array -> Bytes.t -> unit
  (** [fill_bernoulli t probs ~idx bits] is [Array.length probs]
      successive {!val:bernoulli} draws, uncounted, with only the
      positions in [idx] drawn.  Position [i] reads stream position [i] — the float53 of
      [mix (state + (i+1)·gamma)], the draw the [(i+1)]-th call would
      make — so leaving a position out moves no other position's draw.
      For each [i] in [idx], bit [i land 7] of byte [i lsr 3] of [bits]
      is ORed with [draw i < probs.(i)]; no other bit is touched.
      Afterwards [t] has advanced [Array.length probs] positions, drawn
      or not, so later draws from [t] are unchanged.

      A position whose probability is [0.] can never come out true, so
      leaving it out of [idx] gives the same bits; a position left out
      with a positive probability is simply never set.  Probabilities
      must already be in [[0, 1]] (no clamping).  The loop keeps the
      generator state in unboxed locals and has no branch on the
      outcome, so it allocates nothing.
      @raise Invalid_argument if an entry of [idx] is outside
      [[0, Array.length probs)] or [bits] has fewer than
      [(Array.length probs + 7) / 8] bytes. *)
end

val copy : t -> t

val int : t -> int -> int
(** [int t bound] in [[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] inclusive of both bounds.  @raise Invalid_argument if
    [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] uniform in [[0, bound)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] uniform in [[lo, hi)]. *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** True with probability [p] (clamped to [[0, 1]]). *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian (Box–Muller). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp (normal mu sigma)]. *)

val exponential : t -> rate:float -> float
(** @raise Invalid_argument if [rate <= 0.]. *)

val pareto : t -> xmin:float -> alpha:float -> float
(** Pareto-distributed value ≥ xmin with density exponent alpha.
    @raise Invalid_argument if [xmin <= 0.] or [alpha <= 0.]. *)

val choice : t -> 'a array -> 'a
(** @raise Invalid_argument on an empty array. *)

val weighted_sampler : ('a * float) array -> t -> 'a
(** [weighted_sampler a] sums the weights of [a] once and returns a
    function that picks one entry of [a] with probability proportional
    to its weight, for loops that draw many times from one table.  Each
    pick makes one draw, [float t total], and returns the first entry
    whose running left-to-right weight sum exceeds it, found by binary
    search over the sums.  An entry with weight [0.] is never selected,
    including when float rounding pushes the draw past the sums: the
    pick then falls back to the last positive-weight entry.  The
    sampler keeps its own copy of the entries and sums, so later changes
    to [a] do not reach it.
    @raise Invalid_argument when [a] is empty, has a negative weight, or
    its weights are all zero, before any draw. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)
