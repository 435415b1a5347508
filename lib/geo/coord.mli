(** Geographic coordinates (WGS-84 latitude/longitude, degrees).

    Values are created through {!make}, which normalizes the longitude into
    [(-180, 180]] and rejects out-of-range latitudes, so every [t] in the
    program is well-formed by construction. *)

type t = private { lat : float; lon : float }

exception Invalid_coordinate of string

val make : lat:float -> lon:float -> t
(** [make ~lat ~lon] builds a coordinate.  The longitude is wrapped into
    [(-180, 180]].  @raise Invalid_coordinate if [lat] is outside
    [[-90, 90]] or either component is NaN/infinite. *)

val lat : t -> float
val lon : t -> float

val equal : t -> t -> bool
(** [equal a b] is per-component comparison with a tolerance of [1e-9]
    degrees.  Longitude comparison is performed modulo 360 degrees. *)

val abs_lat : t -> float
(** [abs_lat c] is [|lat c|]: the paper's analyses treat north and south
    symmetrically. *)
