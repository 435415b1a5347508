(** Hyperscaler data-center sites (public Google and Facebook/Meta lists,
    2021).

    These lists are small and public, so they are embedded directly — no
    synthesis.  The paper's §4.4.2 comparison rests on their geographic
    spread: Google operates on five continents (incl. Singapore, Chile and
    South Carolina/Georgia sites near surviving cables); Facebook's fleet
    clusters in the northern-latitude US and Europe with nothing in
    Africa or South America. *)

type operator = Google | Facebook

type site = {
  operator : operator;
  name : string;
  country : string;
  pos : Geo.Coord.t;
}

val google : site list
val facebook : site list

val operator_to_string : operator -> string

val latitudes : operator -> (float * float) list
(** [(latitude, weight 1.)] pairs for one operator's fleet. *)

val continents_covered : operator -> Geo.Region.continent list
(** Continents with at least one site, in {!Geo.Region.all_continents}
    order. *)

val latitude_spread : operator -> float
(** Max − min site latitude: the spread measure behind the paper's
    "Google has better spread" conclusion. *)
