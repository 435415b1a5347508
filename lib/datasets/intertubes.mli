(** US long-haul fiber network (substitute for the Intertubes dataset,
    Durairajan et al. 2015).

    273 nodes and 542 conduit links.  Nodes are the US long-haul cities of
    the gazetteer plus conduit junctions placed on the corridors between
    them; links follow the published topology style: conduits run along
    the road system, so link length is the great-circle distance times a
    road-detour factor of ≈ 1.25 (replacing the paper's Google-Maps
    driving distances). *)

val target_nodes : int
(** 273. *)

val target_links : int
(** 542. *)

val build : ?seed:int -> unit -> Infra.Network.t
(** Deterministic synthetic US long-haul network. *)
