(** Continents and coarse geographic regions.

    The dataset generators and the country-scale analysis need to assign
    synthetic points to continents and to test whether a point is on land.
    We use coarse hand-drawn polygons: the consumers only need statistical
    realism (infrastructure on land masses, correct continent labels for
    major cities), not GIS-grade coastlines. *)

type continent =
  | Africa
  | Asia
  | Europe
  | North_america
  | South_america
  | Oceania
  | Antarctica

val all_continents : continent list

val continent_to_string : continent -> string
val equal_continent : continent -> continent -> bool

type polygon
(** A closed polygon on the (lon, lat) plane.  Vertices are given in order;
    the closing edge is implicit. *)

val polygon : (float * float) list -> polygon
(** [polygon vertices] builds a polygon from [(lat, lon)] vertices.
    @raise Invalid_argument with fewer than 3 vertices. *)

val contains : polygon -> Coord.t -> bool
(** Ray-casting point-in-polygon test.  Points exactly on an edge may fall
    on either side; callers treat membership statistically. *)

val continent_of_nearest : Coord.t -> continent
(** The continent whose (coarse) polygon contains the coordinate, with
    overlapping boundary zones resolved in the order of
    {!all_continents}; offshore, the continent with the nearest anchor
    point, so every point gets a label. *)

val on_land : Coord.t -> bool
(** Whether some continent's polygon contains the coordinate. *)
