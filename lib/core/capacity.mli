(** Capacity-weighted failure analysis.

    The paper counts cables; operators count terabits.  This module
    assigns each cable a design capacity (fiber pairs shrink with span
    length — a transoceanic trunk carries fewer pairs than a festoon),
    and measures surviving inter-region capacity with max-flow, including
    the min-cut cables that bottleneck a corridor. *)

val network_capacity_tbps : Infra.Network.t -> float
(** Total installed capacity: the sum of each cable's deterministic
    design capacity, [pairs × 15 Tbps] with 8 pairs below 2,000 km, 6
    below 8,000 km, 4 above (repeater power limits pair count on long
    spans). *)

type corridor = {
  name : string;
  from_countries : string list;
  to_countries : string list;
}

type corridor_report = {
  corridor : corridor;
  healthy_tbps : float;
  expected_tbps : float;  (** mean over storm trials *)
  surviving_pct : float;
  min_cut_cables : string list;  (** bottleneck cables of the healthy corridor *)
}

val terminals : network:Infra.Network.t -> corridor -> int list * int list
(** The corridor's [(sources, sinks)]: the landing nodes in its two
    country groups, with a node on both shores kept as a source only. *)

val flow_between :
  Infra.Network.t -> dead:(int -> bool) -> sources:int list -> sinks:int list -> float
(** Max-flow Tbps between two node groups over the cables not [dead],
    each hop carrying its cable's design capacity: the value
    {!Netgraph.Flow.max_flow_multi} gives on
    [Infra.Network.graph_surviving], without building that graph. *)

val standard_report :
  ?trials:int -> network:Infra.Network.t -> model:Failure_model.t -> unit -> corridor_report list
(** Max-flow capacity of the four standard corridors, in this order:
    US/Canada ↔ Europe, Brazil ↔ Europe, US ↔ East Asia and Asia ↔
    Europe.  Each is measured healthy and after Monte-Carlo storm
    failures: {!Plan.run_trials_par} at seed 71, repeaters every 150 km,
    on {!Exec.default_jobs} workers (the same result for any [--jobs]).
    A corridor whose side resolves to no nodes reports zeros. *)
