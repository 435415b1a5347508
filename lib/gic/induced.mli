(** GIC flowing in a long grounded conductor (§3.2).

    The power-feeding line of a long-haul cable is grounded at the landing
    stations and at intermediate earthing points (branching units).  GIC
    enters and exits at those grounds — even when the cable is powered
    off — and its magnitude is set by the induced EMF between consecutive
    grounds divided by the loop resistance (power-feeding line
    ≈ 0.8 Ω/km plus the two earthing resistances). *)

type section = {
  start_km : float;  (** chainage of the upstream ground *)
  end_km : float;  (** chainage of the downstream ground *)
  emf_v : float;  (** induced EMF magnitude along the section, volts *)
  resistance_ohm : float;  (** total loop resistance of the section *)
  gic_a : float;  (** resulting quasi-DC current, amperes *)
}

type result = {
  sections : section list;
  peak_gic_a : float;  (** maximum |GIC| over sections; 0 for no section *)
  total_emf_v : float;
}

val compute :
  ?line_resistance_ohm_km:float ->
  ?ground_resistance_ohm:float ->
  ?sample_km:float ->
  storm:Disturbance.storm ->
  path:Geo.Coord.t list ->
  ground_chainages_km:float list ->
  unit ->
  result
(** [compute ~storm ~path ~ground_chainages_km ()] integrates the
    geoelectric field along each grounded section of the path.  The path's
    two endpoints are always treated as grounds; interior chainages are
    sorted and deduplicated.  [sample_km] is the integration step
    (default 100 km).  The line resistance defaults to 0.8 Ω/km, the
    figure quoted in §3.2.1, and each ground's to 2 Ω.
    @raise Invalid_argument on an empty path or non-positive resistances. *)

val repeater_stress_ratio : result -> operating_current_a:float -> float
(** Peak GIC divided by the repeater operating current: the "~100×
    operational range" figure of §3.2.1 for Carrington-scale events on
    transoceanic cables. *)
