(** Node-importance measures used by the mitigation planner and the
    infrastructure analysis (e.g. identifying hub landing stations like
    Singapore). *)

val degree : Graph.t -> (Graph.node * int) list
(** All nodes with their degree, descending degree order. *)

val betweenness : Graph.t -> (Graph.node, float) Hashtbl.t
(** Unweighted betweenness centrality (Brandes' algorithm).  Each pair is
    counted once (undirected normalization: scores halved). *)

val top_k : ('a * float) list -> k:int -> ('a * float) list
(** Highest-[k] entries by score, descending.  @raise Invalid_argument if
    [k < 0]. *)
