(** Weighted shortest paths (Dijkstra). *)

val shortest_path :
  Graph.t ->
  weight:(int -> float) ->
  Graph.node ->
  Graph.node ->
  (float * Graph.node list) option
(** Distance and node sequence (inclusive) from source to target, [None]
    when disconnected; [weight] maps an edge id to a non-negative
    length.  @raise Invalid_argument when a visited edge reports a
    negative weight. *)
