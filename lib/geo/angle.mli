(** Angle conversions and normalization helpers.

    All angles in the public API of the [Geo] library are degrees unless a
    function name says otherwise.  This module centralizes the conversions
    so that no other module hard-codes [Float.pi /. 180.]. *)

val deg_to_rad : float -> float
(** [deg_to_rad d] converts degrees to radians. *)

val rad_to_deg : float -> float
(** [rad_to_deg r] converts radians to degrees. *)

val normalize_lon : float -> float
(** [normalize_lon lon] wraps a longitude into the interval [(-180, 180]].
    [normalize_lon 190. = -170.]. *)

val normalize_lat : float -> float
(** [normalize_lat lat] clamps a latitude into [[-90, 90]].  Values outside
    the interval are clamped, not reflected: the callers feed coordinates
    that are at most marginally out of range due to float arithmetic. *)

val angular_diff : float -> float -> float
(** [angular_diff a b] is the smallest absolute difference between two
    longitudes in degrees, in [[0, 180]]. *)
