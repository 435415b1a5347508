(** Post-storm repair and economic impact (§3.2.2, §5.5).

    A submarine repair requires locating the fault from the landing
    stations, sailing a cable ship out and splicing — days to weeks per
    fault, with a worldwide fleet of only a few tens of ships.  A
    superstorm breaks hundreds of cables at once, each possibly at many
    repeaters, so restoration is a queueing problem.  Economic impact uses
    the paper's $7 B/day figure for a US-wide outage, scaled by the dark
    fraction. *)

type params = {
  ships : int;  (** worldwide repair fleet (default 60) *)
  base_repair_days : float;  (** locate + splice one fault (10) *)
  transit_days_per_1000km : float;  (** sailing to the fault (1.5) *)
  faults_per_10_repeaters : float;
      (** damaged repeaters needing separate splices per 10 repeaters (1) *)
}

val default_params : params

type timeline = {
  days_to_50_pct : float;  (** half the dead cables restored *)
  days_to_90_pct : float;
  days_to_full : float;
  series : (float * float) list;  (** (day, fraction of cables restored) *)
  total_ship_days : float;
}

val plan :
  ?params:params ->
  network:Infra.Network.t ->
  dead:bool array ->
  unit ->
  timeline
(** Greedy schedule: ships always take the shortest remaining job
    (restores cable count fastest, like real triage toward
    single-fault cables).  Fully deterministic — the schedule is a pure
    function of [params] and [dead]; it draws no randomness (an earlier
    version advertised a [?seed] it silently ignored).
    @raise Invalid_argument on array size mismatch or non-positive
    fleet. *)

val us_outage_cost_usd :
  dark_fraction:float -> days:float -> float
(** [7e9 × dark_fraction × days] — the paper's §1 figure linearly
    scaled. *)

val storm_recovery :
  ?trials:int ->
  network:Infra.Network.t ->
  model:Failure_model.t ->
  unit ->
  timeline * float
(** Average repair timeline over storm trials, plus the mean number of
    dead cables per trial, with repeaters every 150 km.  Trials run
    through {!Plan.run_trials_par} on {!Exec.default_jobs} workers:
    seed 53, the same result for any [--jobs]. *)
