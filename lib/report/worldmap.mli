(** ASCII world maps (Figures 1 and 2 style).

    Renders a coastline background from the [Geo.Region] polygons, then
    overlays point layers (IXPs, data centers, landing stations) and
    great-circle cable arcs. *)

type layer =
  | Points of char * Geo.Coord.t list
  | Arcs of char * (Geo.Coord.t * Geo.Coord.t) list

val render : layer list -> string
(** 110 columns by 34 rows; later layers draw over earlier ones, on the
    whole-world {!Geo.Projection.equirectangular} grid. *)

val network_layers : ?cable_glyph:char -> ?node_glyph:char -> Infra.Network.t -> layer list
(** Cable arcs (hop by hop) under landing-point markers. *)
