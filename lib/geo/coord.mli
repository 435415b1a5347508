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

val make_opt : lat:float -> lon:float -> t option
(** [make_opt] is {!make} returning [None] instead of raising. *)

val lat : t -> float
val lon : t -> float

val equal : ?eps:float -> t -> t -> bool
(** [equal ?eps a b] is per-component comparison with tolerance [eps]
    (default [1e-9] degrees).  Longitude comparison is performed modulo
    360 degrees. *)

val compare : t -> t -> int
(** Total order (lexicographic on (lat, lon)), suitable for [Map]/[Set]. *)

val abs_lat : t -> float
(** [abs_lat c] is [|lat c|]: the paper's analyses treat north and south
    symmetrically. *)

val to_string : t -> string
(** Prints as e.g. ["40.71N 74.01W"]. *)

val of_string : string -> t option
(** Parses the {!to_string} format and also ["lat,lon"] decimal pairs. *)
