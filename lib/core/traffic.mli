(** Inter-continental traffic shifts after cable failures (§5.5).

    The paper's example: if every New York cable dies, BGP shifts the
    transatlantic demand onto surviving paths and may overload cables in
    California.  This module builds a gravity-model demand matrix between
    continents, routes it over the (surviving) submarine graph along
    shortest paths, and measures deliverability and per-cable load. *)

type demand = {
  from_continent : Geo.Region.continent;
  to_continent : Geo.Region.continent;
  volume : float;  (** arbitrary units; total normalized to 100 *)
}

val gravity_demands : unit -> demand list
(** Demand ∝ product of the continents' population shares (Antarctica
    excluded), normalized to a total of 100 units across ordered-free
    pairs. *)

type routing = {
  delivered_pct : float;  (** demand share with a surviving path *)
  max_cable_load : float;  (** largest per-cable load, demand units *)
}

val route : network:Infra.Network.t -> demands:demand list -> unit -> routing
(** Route each continent-pair demand over the healthy network, along one
    shortest (by length) path between the continents' highest-degree
    landing stations. *)

val storm_shift :
  ?trials:int -> network:Infra.Network.t -> model:Failure_model.t -> unit -> routing * routing
(** [(baseline, after)] — average routing metrics over Monte-Carlo storm
    trials with repeaters every 150 km ({!Plan.run_trials_par} at seed 47
    on {!Exec.default_jobs} workers: the same result for any
    [--jobs]). *)
