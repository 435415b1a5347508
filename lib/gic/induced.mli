(** GIC flowing in a long grounded conductor (§3.2).

    The power-feeding line of a long-haul cable is grounded at the landing
    stations and at intermediate earthing points (branching units).  GIC
    enters and exits at those grounds — even when the cable is powered
    off — and its magnitude is set by the induced EMF between consecutive
    grounds divided by the loop resistance (power-feeding line
    ≈ 0.8 Ω/km plus the two earthing resistances). *)

(** The conductor between two consecutive grounds. *)
type section = {
  gic_a : float;
      (** quasi-DC current, amperes: the section's induced EMF over its
          loop resistance *)
}

type result = {
  sections : section list;
  peak_gic_a : float;  (** maximum |GIC| over sections; 0 for no section *)
}

val compute :
  storm:Disturbance.storm ->
  path:Geo.Coord.t list ->
  ground_chainages_km:float list ->
  unit ->
  result
(** [compute ~storm ~path ~ground_chainages_km ()] integrates the
    geoelectric field along each grounded section of the path.  The path's
    two endpoints are always treated as grounds; interior chainages are
    sorted and deduplicated, and the field is sampled every 100 km.  The
    line resistance is 0.8 Ω/km, the figure quoted in §3.2.1, and each
    ground's is 2 Ω.  @raise Invalid_argument on an empty path. *)
