(** Mitigation planning (§5): shutdown strategy, topology augmentation and
    partition-aware placement.

    The paper lays these out as open directions; this module implements
    executable versions so they can be evaluated quantitatively (the
    ablation benches in DESIGN.md). *)

(** {1 Lead-time shutdown (§5.2)} *)

type shutdown_plan = {
  actionable_lead_h : float;
  power_off_factor : float;
      (** GIC reduction when de-powered (peak current drops only slightly:
          the paper notes GIC flows through a powered-off cable) *)
  cables_failed_on_pct : float;  (** expected failures if left powered *)
  cables_failed_off_pct : float;  (** expected failures after shutdown *)
  benefit_pct : float;
}

val shutdown_plan :
  ?power_off_factor:float ->
  cme:Spaceweather.Cme.t ->
  network:Infra.Network.t ->
  unit ->
  shutdown_plan
(** Expected-failure comparison under the GIC-physical model with and
    without de-powering (default factor 0.8: a 20% peak-current
    reduction). *)

type shutdown_decision = {
  storm_window_h : float;  (** hours the storm holds Dst below the threshold *)
  failure_fraction_powered : float;  (** expected cable-failure fraction if left on *)
  failure_fraction_off : float;
  repair_days_powered : float;  (** approximate 90%-repair time for the damage *)
  repair_days_off : float;
  downtime_powered_days : float;  (** failure fraction × repair window *)
  downtime_off_days : float;  (** shutdown window + reduced damage downtime *)
  recommended : bool;  (** de-power iff it lowers expected downtime *)
}

val shutdown_decision :
  ?power_off_factor:float ->
  ?severe_dst:float ->
  cme:Spaceweather.Cme.t ->
  network:Infra.Network.t ->
  unit ->
  shutdown_decision
(** The §5.2 decision quantified: compare expected downtime
    (self-inflicted shutdown hours + damage × repair time) with and
    without de-powering through the storm window.  The storm window is
    the time the {!Gic.Time_series} profile spends below [severe_dst]
    (default −250 nT); repair time uses the fleet model of {!Recovery}
    with the shortest-job-first approximation. *)

(** {1 Topology augmentation (§5.1)} *)

type augmentation = {
  from_city : string;
  to_city : string;
  length_km : float;
  gain : float;  (** improvement in expected surviving inter-region pairs *)
}

val plan_augmentation :
  ?budget:int ->
  ?state:Failure_model.t ->
  network:Infra.Network.t ->
  unit ->
  augmentation list
(** Greedy selection of up to [budget] (default 3) candidate cables
    maximizing the expected number of continent pairs retaining a direct
    surviving cable under the failure state (default S1). *)

val expected_surviving_pairs :
  ?state:Failure_model.t -> network:Infra.Network.t -> unit -> float
(** The objective {!plan_augmentation} improves: over all continent
    pairs, the sum of probabilities that at least one direct cable
    survives. *)

(** {1 Partition prediction (§5.3)} *)

val predicted_partitions :
  ?state:Failure_model.t -> ?survival_cutoff:float -> network:Infra.Network.t -> unit ->
  int list list
(** Connected components of the network once every cable whose survival
    probability falls below [survival_cutoff] (default 0.5) is removed:
    the landmass partitions a §5.2 geo-replication plan must serve
    independently.  Components are sorted by decreasing size. *)
