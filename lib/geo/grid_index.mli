(** Spatial index over geographic points.

    A fixed-resolution latitude/longitude grid bucketing values by cell.
    Lookups scan the cells overlapped by the query radius; with the default
    5° cells this turns nearest-neighbour queries over tens of thousands of
    points into a handful of bucket scans.  Used by the dataset generators
    (snap synthetic nodes to cities) and by the mitigation planner.

    The cells live in one flat array, one word per cell whether used or
    not: [(180 / cell_deg) · (360 / cell_deg)] words, 2,592 at 5°,
    16,200 at 2° and 1,036,800 at the smallest cell size, 0.25°.  Points at latitude 90 or longitude 180 share the cells
    of their neighbours across the pole row and the antimeridian, so every
    stored point can be found. *)

type 'a t

val add : 'a t -> Coord.t -> 'a -> unit

val of_list : ?cell_deg:float -> (Coord.t * 'a) list -> 'a t
(** A fresh index of [cell_deg]-degree cells (default 5) that [add]s
    the entries in list order.  @raise Invalid_argument unless
    [cell_deg] lies in [[0.25, 90]]. *)

val remove : 'a t -> Coord.t -> 'a -> unit
(** [remove t pos v] deletes the earliest-added entry whose position has
    exactly [pos]'s latitude and longitude and whose value is
    structurally equal to [v]; the other entries keep their order.  Does
    nothing when there is no such entry.  Costs a scan of [pos]'s cell. *)

val size : 'a t -> int
(** Number of stored entries. *)

val within_km : 'a t -> Coord.t -> radius_km:float -> (Coord.t * 'a * float) list
(** All entries within [radius_km] of the query point, with their
    {!Distance.haversine_km} distance, bit for bit.  The order is part of
    the contract, because the dataset generators draw from these lists
    and their output depends on it: cells in a fixed order determined by
    the query point, cell size and radius (rows from south to north, in
    each row the columns from west to east around the query's), and
    within a cell, entries in the order they were added.  It is not
    sorted by distance.  @raise Invalid_argument if [radius_km < 0.]. *)

val nearest_within :
  ?skip:('a -> bool) -> 'a t -> Coord.t -> radius_km:float -> (Coord.t * 'a * float) option
(** The nearest entry within [radius_km] whose value [skip] does not
    reject (default: none rejected): the head of {!within_km}'s list,
    less the skipped entries, stably sorted by distance, or [None] when
    that is empty.  It measures only the entries that could be nearer
    than the best so far, and builds no list.
    @raise Invalid_argument if [radius_km < 0.]. *)

val nearest : 'a t -> Coord.t -> (Coord.t * 'a * float) option
(** Closest entry to the query point, or [None] on an empty index:
    {!nearest_within} at radii of 250 km, 500 km, and so on doubling
    until one finds an entry (the last, 32,000 km, spans the globe).  Of
    several entries at the same least distance, the first in
    {!within_km}'s order wins. *)

val fold : 'a t -> init:'b -> f:('b -> Coord.t -> 'a -> 'b) -> 'b
(** Visits every entry once, in an unspecified order. *)
