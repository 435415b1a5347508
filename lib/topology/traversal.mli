(** Graph traversals and connected components. *)

val bfs : Graph.t -> Graph.node -> (Graph.node * int) list
(** [(node, hop distance)] pairs reachable from the source, in visit
    order.  The source itself appears with distance 0.  An absent source
    yields []. *)

val reachable_set : Graph.t -> Graph.node -> (Graph.node, unit) Hashtbl.t
(** Same as a hashtable, for O(1) membership tests on large graphs. *)

val connected_components : Graph.t -> Graph.node list list
(** Partition of the nodes into components; each component sorted
    ascending, components ordered by their smallest node. *)

val component_sizes : Graph.t -> int list
(** Sizes, descending. *)

val is_connected : Graph.t -> bool
(** True for graphs with at most one component (the empty graph is
    connected). *)

val same_component : Graph.t -> Graph.node -> Graph.node -> bool
