(** Great-circle distances on the WGS-84 mean sphere.

    The paper measures cable lengths in kilometres; the simulator needs
    distances accurate to a few kilometres over spans of up to 39,000 km,
    for which a spherical model is sufficient.  {!vincenty} provides an
    ellipsoidal reference used in the test suite to bound the spherical
    error. *)

val earth_radius_km : float
(** Mean Earth radius (6371.0088 km). *)

val haversine_km : Coord.t -> Coord.t -> float
(** Great-circle distance via the haversine formula.  Numerically stable
    for antipodal and for very close points. *)

val cos_lat : Coord.t -> float
(** Cosine of the latitude, as {!haversine_km} computes it. *)

val haversine_cos_km : Coord.t -> cos_a:float -> Coord.t -> cos_b:float -> float
(** [haversine_cos_km a ~cos_a b ~cos_b] is [haversine_km a b], bit for
    bit, when [cos_a = cos_lat a] and [cos_b = cos_lat b]: the same
    formula with the two cosines computed once by the caller, for loops
    that measure many distances from one point or to stored points. *)

val max_dlat_deg : float -> float
(** [max_dlat_deg km] is a latitude difference, in degrees, that two
    points at most [km] apart by {!haversine_km} never exceed.  A
    great-circle distance is at least the meridian arc between the two
    latitudes; the bound adds a margin (1e-9 relative, 1e-9 km absolute)
    far above the formula's rounding, so a pair rejected by it would
    also fail [haversine_km a b <= km]. *)

val vincenty_km : Coord.t -> Coord.t -> float
(** Vincenty inverse formula on the WGS-84 ellipsoid.  Falls back to
    {!haversine_km} when the iteration fails to converge within 100 steps
    (nearly antipodal points). *)

val central_angle_rad : Coord.t -> Coord.t -> float
(** Central angle between two points, radians. *)

val path_length_km : Coord.t list -> float
(** Sum of haversine hop lengths along a polyline.  [0.] for lists of
    fewer than two points. *)
