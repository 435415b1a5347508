(** Geomagnetic (dipole) latitude.

    GIC intensity correlates with {e geomagnetic} rather than geographic
    latitude: the auroral electrojets are organized around the geomagnetic
    pole.  We use the centred-dipole approximation with the IGRF-13 (2020)
    north geomagnetic pole at 80.65°N, 72.68°W.  The paper's thresholds
    (40°, 60°) are geographic; this module supports the physics-based GIC
    extension and the sensitivity analyses. *)

val dipole_latitude : Coord.t -> float
(** [dipole_latitude c] is the geomagnetic latitude of [c] in degrees
    ([[-90, 90]]), positive towards the geomagnetic north pole. *)
