(** Weighted shortest paths (Dijkstra). *)

val dijkstra :
  Graph.t -> weight:(int -> float) -> Graph.node -> (Graph.node, float) Hashtbl.t
(** [dijkstra g ~weight src] is the table of shortest distances from
    [src]; [weight] maps an edge id to a non-negative length.
    Unreachable nodes are absent.  @raise Invalid_argument when a visited
    edge reports a negative weight. *)

val shortest_path :
  Graph.t ->
  weight:(int -> float) ->
  Graph.node ->
  Graph.node ->
  (float * Graph.node list) option
(** Distance and node sequence (inclusive) from source to target, [None]
    when disconnected. *)
