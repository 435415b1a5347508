(** Compiled simulation plans: the one storm-trial engine.

    Every Monte-Carlo analysis in the repository reduces to the same
    kernel — kill each cable of a network independently with its death
    probability under a failure model, then measure something on the
    surviving topology.  A {!t} compiles the [(network, model,
    repeater-spacing)] triple once: the per-repeater and per-cable death
    probabilities become flat [float array]s indexed by cable id, and
    each death probability [p] also the integer [⌈p·2^53⌉]
    ({!Rng.Raw.threshold}), so the hot loop of a trial is an array read,
    one draw and one integer compare per cable that can die, instead of
    a closure application and a [**] per cable per trial.  Compilation
    also indexes what a trial touches, so that a trial costs what the
    storm touches rather than the size of the map:
    - the {e uncertain} cables, whose death probability is above 0 —
      the only ones {!sample} draws;
    - the node→cable incidence (CSR); per cable, the number of nodes it
      is the only cable of (its {e weight}: such a node is unreachable
      exactly when that cable dies); and for every {e shared} node (two
      or more cables) one {e owner}: its incident cable least likely to
      die, the first in cable order on ties.  {!unreachable_attached_pct}
      scans the dead set, adds each dead cable's weight and checks only
      the shared nodes that dead cables own.
    These tables add [3·nb_cables + 1 + shared + uncertain] words to a
    plan besides the incidence ([shared] nodes with two or more cables,
    [uncertain] cables that can die).

    Trial outcomes are {!Deadset.t} bitvectors — see that module for the
    representation and the reuse contract ([dead] buffers are scratch;
    copy what must outlive a callback).

    Draw-order contract: in {!sample}, cable [c] reads stream position
    [c] of the trial generator — the draw the [(c+1)]-th of
    [nb_cables] successive [Rng.bernoulli] calls would make.  Death-0
    cables are not drawn (such a draw can never kill), and skipping one
    moves no other cable's draw; the generator still advances
    [nb_cables] positions, so callbacks that keep drawing from it see
    the same stream.  The dead sets are therefore byte-identical to the
    historical [Failure_model.compile]-per-consumer loops, and seeds
    reproduce the published numbers unchanged.  {!run_trials_par}, the
    one trial driver, reproduces the historical master-RNG pattern:
    [Rng.create seed], then the stream of one [Rng.split] per trial.

    Observability: compiles and trials are counted on the [plan.compiles]
    and [plan.trials] metrics ([plan.par_runs] counts {!run_trials_par}
    invocations), compilation runs under a ["plan.compile"] span, and a
    driver run under a ["plan.run_trials"] span with one ["plan.chunk"]
    span per chunk of trials a domain claims, none per trial, so a long
    run cannot flood the span ring (all off-by-default, see DESIGN.md).
    Hot loops draw through the uncounted {!Rng.Raw} stream and settle
    [rng.draws] in batched {!Rng.note_draws} calls — per call in
    {!sample_into}, per work-stealing chunk in the driver — so
    [rng.draws] counts the draws made (one per uncertain cable per
    trial, plus one per split) and its totals stay exactly equal across
    job counts without a sharded-atomic hit per draw.  The driver feeds
    the live progress meter ({!Obs.Progress}, batched per chunk),
    rendered on stderr under the [--progress] CLI flag and costing one
    branch per batch otherwise. *)

type t

val compile :
  ?spacing_km:float ->
  network:Infra.Network.t ->
  model:Failure_model.t ->
  unit ->
  t
(** Precompute per-cable probabilities (default spacing 150 km, the
    paper's baseline) and their integer thresholds, the uncertain-cable
    index, the node→cable incidence, the cable weights and the owners
    of shared nodes.  For {!Failure_model.Gic_physical}
    this runs the full GIC exposure pipeline once.
    @raise Invalid_argument if [spacing_km <= 0.]. *)

val network : t -> Infra.Network.t
val spacing_km : t -> float

val nb_cables : t -> int
(** Number of cables, i.e. the length of every sampled [dead] set. *)

val death_prob : t -> int -> float
(** [death_prob t c] — probability that cable [c] dies (≥ 1 repeater
    fails): [1 - (1-p)^n] precomputed at compile time. *)

val per_repeater_prob : t -> int -> float
(** The model's per-repeater failure probability for cable [c] (the
    value the historical [Failure_model.compile model ~network] closure
    returned). *)

val sample : t -> Rng.t -> Deadset.t
(** One storm trial: a fresh per-cable death set.  Cable [c] reads
    stream position [c] of the generator and dies when that draw's 53
    bits are below its threshold, exactly when [Rng.bernoulli] with its
    death probability would return [true]; death-0 cables are not
    drawn; the generator advances [nb_cables] positions either way. *)

val sample_into : t -> Rng.t -> Deadset.t -> unit
(** {!sample} into a caller-owned buffer of length {!nb_cables} — the
    per-trial path.  Its cost follows the uncertain cables, and it
    allocates the same few words on any network.  @raise
    Invalid_argument on size mismatch. *)

val sample_recompute_into : t -> Rng.t -> Deadset.t -> unit
(** Reference implementation of the pre-plan hot loop: re-applies the
    model closure, recomputes [1 - (1-p)^n] and draws through the
    counted [Rng.bernoulli] for every cable, death-0 ones included, on
    every call.  It leaves the same dead set and the same generator
    state as {!sample_into}; it exists so the bench can quantify the
    compiled plan's win and tests can assert equivalence.  Not for
    production use. *)

val unreachable_attached_pct : t -> Deadset.t -> float
(** Percentage of cable-bearing nodes whose every incident cable is dead
    — the same value as [Montecarlo.nodes_unreachable_pct] on the plan's
    network.  Each dead cable adds its weight, the nodes it is the only
    cable of.  A shared node can only be unreachable if its owner died,
    and it has one owner, so the count visits only the shared nodes
    owned by dead cables (early exit on their first live cable) and
    counts each unreachable node once.  The cost follows the dead
    cables, not the node count; the only allocation is the result.
    @raise Invalid_argument on size mismatch. *)

val expected_cables_failed_pct : t -> float
(** Closed-form expectation (no sampling): mean of the per-cable death
    probabilities, in percent.  Matches the historical
    [Montecarlo.expected_cables_failed_pct] bit-for-bit. *)

val run_trials_par :
  ?jobs:int ->
  t ->
  trials:int ->
  seed:int ->
  init:'acc ->
  map:(rng:Rng.t -> dead:Deadset.t -> 'a) ->
  merge:('acc -> 'a -> 'acc) ->
  'acc
(** The trial driver: run [trials] independent storm trials, [map] each
    one, and fold the results with [merge] in trial order.  Trial [i]
    samples its dead set from the generator of the [(i+1)]-th
    [Rng.split (Rng.create seed)] before [map] runs, so [map] may keep
    drawing from [rng] for its own per-trial randomness (grid outages,
    repair jitter, ...).  [~jobs:1] is the sequential path: one chunk on
    the calling domain, [map] then [merge] in trial order.

    Deterministic by construction: for the same [seed], every [jobs]
    gives byte-identical results (see DESIGN.md §6):
    - {e indexed splits} — trial [i] draws from [Rng.split_ith master i],
      a pure function of the seed and the trial index, so seeds keep
      reproducing the published numbers and no pre-split array of
      [trials] generators is built;
    - {e ordered merge} — each work-stealing chunk accumulates its [map]
      results into its own array (no shared option-array, no false
      sharing) and the chunks are folded left-to-right in trial order,
      so float accumulation order never depends on domain scheduling.

    [jobs] defaults to {!Exec.default_jobs} (the [--jobs] flag /
    [SOLARSTORM_JOBS] environment variable, else 1); trials are dealt to
    domains by chunked work-stealing ({!Exec.parallel_for}, persistent
    pool).  [map] runs on worker domains: it must not touch shared
    mutable state — [Obs] metrics are fine (atomic), [Obs.Span] records
    into a per-domain ring (worker spans show up in profiles with their
    domain id, under their chunk's ["plan.chunk"] span; a span per trial
    would fill the ring), and [dead] is a worker-owned buffer reused
    across that worker's trials, valid only for the duration of the call
    (copy it to keep it).  [merge] runs on the calling domain.

    @raise Invalid_argument if [trials <= 0] or [jobs <= 0]. *)
