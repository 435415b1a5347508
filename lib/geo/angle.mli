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

val angular_diff : float -> float -> float
(** [angular_diff a b] is the smallest absolute difference between two
    longitudes in degrees, in [[0, 180]]. *)
