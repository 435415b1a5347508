(** Persistent Domain pool for embarrassingly-parallel loops.

    OCaml 5 gives us shared-memory parallelism through [Domain]s; this
    module wraps the one pattern the simulator needs — run a counted
    loop across N domains — behind a deterministic, dependency-free
    interface.  Work distribution is {e chunked work-stealing}: the index
    range [[0, n)] is cut into fixed-size chunks and workers repeatedly
    claim the next unclaimed chunk off a shared [Atomic] cursor, so an
    unlucky domain stuck with slow chunks never strands the rest of the
    range.  Determinism of {e results} is the caller's job: give each
    index its own pre-seeded RNG and write to index-owned slots (see
    {!Plan.run_trials_par} for the canonical use).

    Worker domains are {e pooled}: spawned lazily on the first section
    that wants them, then reused by every later [parallel_for] from any
    domain — spawning per call cost hundreds of microseconds × [jobs-1]
    per section, which dominated (and inverted) the speedup on ~20 ms
    kernels.  The pool grows on demand up to an internal cap, is shared
    by concurrent sections (e.g. several [solarstorm serve] worker
    domains running plans at once), and is joined by a [Stdlib.at_exit]
    hook so the process never exits with runnable domains leaked.  The
    calling domain always participates in its own section, so a section
    completes even with zero free pool workers; helpers are strictly
    optional accelerators.

    Observability: each parallel section counts on
    [exec.parallel_sections]; [exec.domains_spawned] counts {e actual}
    domain spawns, so under the pool it rises to the high-water helper
    count and then stays flat — a cheap reuse probe for tests.  Every
    participating domain — pooled or calling — runs its stealing loop
    under an ["exec.worker"] span, so a profile ([solarstorm --profile])
    shows one trace row per active domain even when work-stealing left a
    domain without a chunk.  The caller's trace context
    ({!Obs.Span.current_trace}, domain-local) is captured at section
    start and re-installed in every helper, so a request id set by the
    serving layer follows the work onto pool domains.  All of it is
    off-by-default obs, one branch when disabled. *)

val available_jobs : unit -> int
(** What the hardware offers: [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** The job count used when a caller does not pass [~jobs]: the last
    {!set_default_jobs} value if any, else the [SOLARSTORM_JOBS]
    environment variable when it parses as a positive integer, else [1]
    (sequential — byte-compatible with the pre-parallel engine by
    construction, and the right default for reproducible CI). *)

val set_default_jobs : int -> unit
(** Process-wide override of {!default_jobs}; the [--jobs] CLI flag lands
    here once at startup so every consumer deep in the figure pipeline
    picks it up without threading a parameter through each call.
    @raise Invalid_argument if the count is [<= 0]. *)

val pool_size : unit -> int
(** Worker domains currently alive in the pool.  Starts at 0, grows as
    sections request helpers, never exceeds the internal cap, and — the
    property tests lean on — stays flat across repeated sections of the
    same width. *)

val parallel_for : ?chunk:int -> jobs:int -> n:int -> (lo:int -> hi:int -> unit) -> unit
(** [parallel_for ~jobs ~n body] covers the index range [[0, n)] with
    disjoint [body ~lo ~hi] calls (half-open ranges), using the calling
    domain plus up to [jobs - 1] pool helpers.  Each range is visited
    exactly once; ranges are claimed dynamically in chunks of [chunk]
    indices (default: [n / (8 × jobs)], at least 1 — small enough to
    balance load, large enough to amortize the claim).

    With [jobs <= 1] (or [n <= 1]) the body runs inline on the calling
    domain as a single [body ~lo:0 ~hi:n] call — no pool interaction, no
    atomic is touched.

    The call returns only after every participating domain has left the
    section, even when [body] raises; the first exception (calling
    domain's first, then helper order) is re-raised, and a failure stops
    further chunk claims.  [body] must be safe to run concurrently with
    itself on disjoint ranges.

    {b Nesting.}  A [parallel_for] called from inside a section body
    runs inline too, as one [body ~lo:0 ~hi:n] call on that domain,
    whatever its [jobs].  The outer section already occupies the
    domains its [jobs] asked for; an inner section could only add
    domains beyond that (the pool spawns when no worker is idle), not
    speed.  So the grain of parallelism is the outermost section: a
    caller that opens sections over whole tasks (figures, dataset
    builds) gets task parallelism, and the trial loops inside each task
    run sequentially on the task's domain.

    @raise Invalid_argument if [jobs <= 0] or [n < 0]. *)
