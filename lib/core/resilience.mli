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
  ?trials:int ->
  ?probabilities:float list ->
  ?seed:int ->
  networks:(string * Infra.Network.t) list ->
  unit ->
  sweep_point list
(** The full uniform-probability sweep (Fig. 6 reads [cables_*] of each
    point; Fig. 7 reads [nodes_*]).  Points are ordered by (spacing,
    network, probability). *)

type tiered_point = {
  state : string;  (** "S1" or "S2" *)
  spacing_km : float;
  network : string;
  series : Montecarlo.series;
}

val fig8 :
  ?trials:int ->
  ?seed:int ->
  networks:(string * Infra.Network.t) list ->
  unit ->
  tiered_point list
(** S1/S2 × spacing × network (Fig. 8 plots cables and nodes for the
    submarine and Intertubes networks). *)

val find_sweep :
  sweep_point list ->
  network:string ->
  spacing_km:float ->
  probability:float ->
  sweep_point option

val find_tiered :
  tiered_point list -> network:string -> spacing_km:float -> state:string -> tiered_point option
