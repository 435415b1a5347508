(** Monte-Carlo failure trials over a cable network.

    The experiment unit of Figs 6–8: kill each cable independently with
    its death probability (≥ 1 repeater failing), then measure the
    fraction of cables failed and of nodes unreachable.  Following §4.3.1
    of the paper, a node is unreachable when {e all} cables landing at it
    have failed.

    Trial sampling lives in {!Plan}: callers that run many analyses over
    the same [(network, model, spacing)] triple should {!Plan.compile}
    once and pass the plan around; {!run} is the convenience wrapper that
    compiles and immediately runs. *)

type series = {
  cables_mean : float;
  cables_std : float;
  nodes_mean : float;
  nodes_std : float;
}
(** Mean ± stddev over the trials, in percent. *)

val cables_failed_pct : Infra.Network.t -> Deadset.t -> float

val nodes_unreachable_pct : Infra.Network.t -> Deadset.t -> float
(** Percentage of {e cable-bearing} nodes whose every incident cable is
    dead (nodes without any cable are excluded from the denominator).
    Network-only reference path that walks every node, kept as the test
    oracle: trial loops holding a compiled plan use
    {!Plan.unreachable_attached_pct}, which computes the same value
    visiting only the nodes of dead cables. *)

val run_plan : ?trials:int -> ?jobs:int -> seed:int -> Plan.t -> series
(** [run_plan plan] aggregates [trials] (default 10) independent trials
    of an already-compiled plan through {!Plan.run_trials_par}.
    Deterministic in [seed] alone — [jobs] (default
    {!Exec.default_jobs}) only changes how many domains sample, never
    the result.  Does no observability work per trial: the run is one
    ["mc.run"] span, and [mc.trials_total] and [mc.cables_failed] (the
    dead cables summed over trials) are each added once per run.
    @raise Invalid_argument if [trials <= 0]. *)

val run :
  ?trials:int ->
  seed:int ->
  network:Infra.Network.t ->
  spacing_km:float ->
  model:Failure_model.t ->
  unit ->
  series
(** [run] aggregates [trials] (default 10, as in the paper) independent
    trials: [Plan.compile] followed by {!run_plan} on
    {!Exec.default_jobs} workers.  Deterministic in [seed] for any
    [--jobs].  @raise Invalid_argument if [trials <= 0] or
    [spacing_km <= 0.]. *)

val expected_cables_failed_pct :
  network:Infra.Network.t -> spacing_km:float -> model:Failure_model.t -> float
(** Closed-form expectation (no sampling): mean of the per-cable death
    probabilities, in percent.  Used by tests to validate the Monte-Carlo
    engine and by the mitigation planner.  Equivalent to compiling a plan
    and reading {!Plan.expected_cables_failed_pct}. *)
