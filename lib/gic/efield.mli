(** Geoelectric field from the plane-wave method.

    [E = Z(ω) · H] with [H = ΔB / μ0]: the standard engineering
    approximation for GIC studies (Pulkkinen et al. 2012).  Combines the
    disturbance model (field amplitude by location and storm) with the
    layered-earth impedance (by terrain). *)

val amplitude_v_per_km : Disturbance.storm -> Geo.Coord.t -> float
(** Geoelectric-field amplitude at a location for a storm, in V/km, using
    {!Conductivity.profile_for} for the local ground. *)

val amplitude_with_profile :
  Disturbance.storm -> Conductivity.profile -> Geo.Coord.t -> float
(** Same with an explicit conductivity profile. *)

val projection_factor_mean : float
(** E[|cos θ|] for uniformly random θ: [2/π], the mean projection of a
    field with no preferred direction onto a cable (the paper notes
    CME-driven fields have none, §3.1(iv)). *)
