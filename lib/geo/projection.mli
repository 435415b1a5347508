(** Map projections onto a character/pixel grid.

    Used by [Report.Worldmap] to render Fig. 1/2-style maps as ASCII art
    and by CSV exporters that emit plot-ready x/y pairs. *)

type t = {
  width : int;
  height : int;
  lat_min : float;
  lat_max : float;
  lon_min : float;
  lon_max : float;
}

val equirectangular : ?bounds:float * float * float * float -> width:int -> height:int -> unit -> t
(** [equirectangular ~width ~height ()] covers the whole globe; [bounds]
    is [(lat_min, lat_max, lon_min, lon_max)] for regional maps.
    @raise Invalid_argument on non-positive dimensions or inverted
    bounds. *)

val to_xy : t -> Coord.t -> (int * int) option
(** Pixel coordinates (column, row); row 0 is the {e northern} edge.
    [None] when the point falls outside the projection bounds. *)

val of_xy : t -> int -> int -> Coord.t
(** Centre coordinate of pixel (x, y).  Clamps out-of-range pixels to the
    map edge. *)
