(** Great-circle interpolation and cable-path sampling.

    Cables in the infrastructure model follow great-circle arcs between
    their waypoints.  Repeater and grounding positions are sampled at fixed
    arc-length intervals along those paths, which is what this module
    provides. *)

val waypoints : Coord.t -> Coord.t -> n:int -> Coord.t list
(** [waypoints a b ~n] is a polyline of [n + 1] points ([a] ... [b]) evenly
    spaced along the great-circle arc from [a] to [b]: exactly [a] and
    [b] at the ends.  For (near-)antipodal endpoints the arc is
    ambiguous; the implementation keeps a deterministic choice.
    @raise Invalid_argument if [n < 1]. *)

val sample_every_km : Coord.t -> Coord.t -> step_km:float -> Coord.t list
(** Points every [step_km] kilometres along the arc, including both
    endpoints.  @raise Invalid_argument if [step_km <= 0.]. *)

val point_at_km : Coord.t list -> float -> Coord.t
(** [point_at_km path d] walks [d] kilometres along a polyline and returns
    the interpolated position.  Clamps to the endpoints when [d] is outside
    [[0, length]].  @raise Invalid_argument on an empty path. *)

val positions_along : Coord.t list -> spacing_km:float -> (float * Coord.t) list
(** [positions_along path ~spacing_km] is the list of (chainage-km, point)
    pairs at [spacing_km], [2 * spacing_km], ... strictly inside the path.
    This is the repeater-placement primitive: a 400 km path at 150 km
    spacing has repeaters at 150 and 300 km.
    @raise Invalid_argument if [spacing_km <= 0.]. *)
