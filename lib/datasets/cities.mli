(** World-city gazetteer shared by every dataset generator.

    ≈ 350 cities with coordinates, country, continent, metro population
    and a coastal flag (can host a submarine landing station).  The
    coordinates and populations are public knowledge (city-scale
    precision is all the analyses need); this table is what lets the
    synthetic datasets place infrastructure where it actually is. *)

type t = {
  name : string;
  country : string;
  continent : Geo.Region.continent;
  pos : Geo.Coord.t;
  population_m : float;  (** metro population, millions *)
  coastal : bool;
}

val all : t array
(** The full gazetteer.  Names are unique. *)

val find : string -> t
(** Lookup by exact name.  @raise Not_found when absent. *)

val coord : string -> Geo.Coord.t
(** [coord name] is [(find name).pos].  @raise Not_found when absent. *)

val coastal_cities : unit -> t array

val in_country : string -> t array

val by_population : unit -> t array
(** Descending population. *)
