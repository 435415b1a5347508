(** Maximum flow / minimum cut (Dinic's algorithm).

    Used for capacity analysis: how many terabits per second survive
    between two shores, and which cables form the bottleneck.  Undirected
    edges are modeled as two opposing arcs, each with the edge's full
    capacity (standard undirected max-flow construction). *)

type result = {
  value : float;  (** maximum flow value *)
  edge_flow : int -> float;  (** |flow| routed across an edge id *)
  source_side : Graph.node -> bool;
      (** residual-reachability from the source: defines the min cut *)
}

val max_flow :
  Graph.t -> capacity:(int -> float) -> source:Graph.node -> sink:Graph.node -> result
(** @raise Invalid_argument if source = sink, either is absent, or a
    capacity is negative. *)

val max_flow_multi :
  Graph.t ->
  capacity:(int -> float) ->
  sources:Graph.node list ->
  sinks:Graph.node list ->
  float
(** Multi-source/multi-sink value via virtual super-terminals.
    0 when either side is empty after dropping absent nodes.
    @raise Invalid_argument if the groups overlap. *)

val max_flow_multi_edges :
  nodes:int ->
  max_edges:int ->
  edges:((int -> int -> float -> int -> unit) -> unit) ->
  sources:int list ->
  sinks:int list ->
  float
(** {!max_flow_multi} over a graph given as an edge stream rather than a
    {!Graph.t}, so a caller that already holds its edges builds no
    graph.  Nodes are [0, nodes); [edges add] calls [add u v capacity id]
    once per undirected edge, at most [max_edges] times.  Every entry of
    this module lays out Dinic's arcs this way, in stream order; a
    {!Graph.t} streams its edges in ascending id order over its nodes'
    ascending ranks.  So a stream in that order gives the value
    {!max_flow_multi} gives on the graph, bit for bit.
    @raise Invalid_argument if a terminal is outside [[0, nodes)], the
    groups overlap, or a capacity is negative. *)

val min_cut_edges_multi :
  Graph.t ->
  capacity:(int -> float) ->
  sources:Graph.node list ->
  sinks:Graph.node list ->
  int list
(** Edge ids crossing the multi-terminal minimum cut (ascending); [] when
    either group is empty. *)

val min_cut_edges :
  Graph.t -> capacity:(int -> float) -> source:Graph.node -> sink:Graph.node -> int list
(** Edge ids crossing the minimum cut (saturated source-side → sink-side
    edges), ascending. *)
