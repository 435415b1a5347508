(** Power-grid interdependence (§5.5).

    The paper: grids fail regionally (the US alone has three
    interconnects), transformer replacement takes months, and Internet
    infrastructure rides on grid power — so cable failures and grid
    failures compound.  This module models regional grids with
    GIC-driven failure probabilities and couples them to a cable network
    through landing-station backup power. *)

type region = {
  name : string;
  countries : string list;  (** node-country labels served by this grid *)
  reference : Geo.Coord.t;  (** representative location for GIC exposure *)
  gic_vulnerability : float;
      (** scaling of transformer fragility (shield terrain and long EHV
          lines make some grids more exposed), ~1.0 nominal *)
}

val region_of_country : string -> region option
(** The grid serving a country: the first, in table order, of ~15
    regional grids that cover the gazetteer countries.  The US has
    three, Eastern, Western and ERCOT-Texas (the paper's §5.5 example),
    in that order, so a US query gives US-Eastern; {!simulate} picks a
    US landing station's grid by its longitude. *)

val failure_probability : region -> dst_nt:float -> float
(** Probability the regional grid collapses during the storm: driven by
    the disturbance latitude factor at the region's geomagnetic latitude
    times storm strength, scaled by [gic_vulnerability].  ≈ 1 for
    Quebec-like grids under 1989-class storms; small at equatorial
    latitudes. *)

val outage_days : Rng.t -> region -> dst_nt:float -> float
(** Sampled outage duration given collapse: lognormal with a median that
    grows from ~0.5 day (breaker trips) to months (transformer
    replacement) with storm strength.  The paper cites 20–40 M people
    without power for up to 2 years for a Carrington-scale event. *)

type coupled_result = {
  cables_failed_pct : float;
  nodes_cable_dark_pct : float;  (** nodes dark from cable failures alone *)
  nodes_grid_dark_pct : float;  (** nodes dark from grid outages alone *)
  nodes_dark_pct : float;  (** either cause *)
  amplification : float;  (** nodes_dark / max(nodes_cable_dark, eps) *)
  regions_down : string list;
}

val simulate :
  ?trials:int ->
  network:Infra.Network.t ->
  model:Failure_model.t ->
  dst_nt:float ->
  unit ->
  coupled_result
(** Monte-Carlo coupling: a node is dark if all its cables died, or if
    its regional grid is down for longer than the landing station's
    3 days of backup power.  Repeaters sit every 150 km, and the trials
    run at seed 31.  [regions_down] lists the grids that failed in the
    majority of trials. *)
