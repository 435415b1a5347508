(** Failure-sweep experiments: Figures 6, 7 and 8.

    Figs 6–7 sweep a uniform per-repeater failure probability over three
    inter-repeater spacings and three networks, 10 trials each; Fig. 8
    evaluates the latitude-tiered states S1/S2. *)

type sweep_point = {
  probability : float;
  spacing_km : float;
  network : string;
  series : Montecarlo.series;
}

val fig6_7 :
  ?trials:int -> networks:(string * Infra.Network.t) list -> unit -> sweep_point list
(** The full uniform-probability sweep over the paper's seven
    probabilities, 0.001 to 1 (Fig. 6 reads [cables_*] of each point;
    Fig. 7 reads [nodes_*]).  Points are ordered by (spacing, network,
    probability); each point's seed derives from base seed 7 and its own
    (network, probability), not from the other points. *)

type tiered_point = {
  state : string;  (** "S1" or "S2" *)
  spacing_km : float;
  network : string;
  series : Montecarlo.series;
}

val fig8 : ?trials:int -> networks:(string * Infra.Network.t) list -> unit -> tiered_point list
(** S1/S2 × spacing × network (Fig. 8 plots cables and nodes for the
    submarine and Intertubes networks); each point's seed derives from
    base seed 11. *)

val find_sweep :
  sweep_point list ->
  network:string ->
  spacing_km:float ->
  probability:float ->
  sweep_point option

val find_tiered :
  tiered_point list -> network:string -> spacing_km:float -> state:string -> tiered_point option
