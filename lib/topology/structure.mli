(** Structural fragility: bridges, articulation points, k-cores.

    A bridge cable is a single point of disconnection — exactly the
    situation the paper flags for single-cable countries (e.g. the one
    Florida–Portugal link below 40°N). *)

val bridges : Graph.t -> int list
(** Edge ids whose removal increases the number of components.  Parallel
    edges are never bridges. *)

val articulation_points : Graph.t -> Graph.node list
(** Nodes whose removal increases the number of components. *)

val k_core : Graph.t -> k:int -> Graph.t
(** Maximal subgraph in which every node has degree ≥ k.
    @raise Invalid_argument if [k < 0]. *)
