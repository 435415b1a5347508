(** Map projections onto a character/pixel grid.

    Used by [Report.Worldmap] to render Fig. 1/2-style maps as ASCII art
    and by CSV exporters that emit plot-ready x/y pairs. *)

type t = { width : int; height : int }

val equirectangular : width:int -> height:int -> t
(** [equirectangular ~width ~height] covers the whole globe.
    @raise Invalid_argument on non-positive dimensions. *)

val to_xy : t -> Coord.t -> int * int
(** Pixel coordinates (column, row); row 0 is the {e northern} edge.
    Every coordinate has one. *)

val of_xy : t -> int -> int -> Coord.t
(** Centre coordinate of pixel (x, y).  Clamps out-of-range pixels to the
    map edge. *)
