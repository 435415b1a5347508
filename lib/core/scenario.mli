(** End-to-end storm scenarios: CME → forecast → GIC → failures.

    Ties the whole pipeline together for the examples and the CLI: a CME
    is launched, the warning timeline computed, the expected Dst mapped to
    a disturbance, and the failure impact on one or more networks
    evaluated with both the paper's probabilistic model (tier chosen by
    storm class) and the physics-based GIC model. *)

type impact = {
  network : string;
  model : Failure_model.t;
  cables_failed_pct : float;
  nodes_unreachable_pct : float;
}

type t = {
  cme : Spaceweather.Cme.t;
  dst_nt : float;
  severity : Spaceweather.Dst.severity;
  timeline : Spaceweather.Forecast.timeline;
  impacts : impact list;
}

val run :
  ?trials:int ->
  ?use_physical:bool ->
  cme:Spaceweather.Cme.t ->
  networks:(string * Infra.Network.t) list ->
  unit ->
  t
(** Evaluate a scenario.  Each network's first impact comes from the
    paper-style tiered model matched to the storm class: S1 for
    Carrington-class, S2 for severe/extreme storms, a mild tier below.
    With [use_physical] (default false) the GIC-physical model is also
    run per network and appended to [impacts].  Monte-Carlo trials run
    on {!Plan.run_trials_par} at seed 17 (18 for the physical model),
    repeaters every 150 km, on {!Exec.default_jobs} workers: the same
    result for any [--jobs]. *)

val pp : Format.formatter -> t -> unit
