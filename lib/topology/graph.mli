(** Persistent undirected multigraph with integer node identifiers.

    The infrastructure model maps cables to edges and landing
    points/cities to nodes.  Multigraph semantics matter: two cities are
    often joined by several distinct cables, and a failure analysis must
    distinguish "one of the cables died" from "the link is gone". *)

type node = int

type edge = { id : int; u : node; v : node }

type t

val empty : t

val add_node : t -> node -> t
(** Idempotent. *)

val add_edge : t -> id:int -> node -> node -> t
(** Adds the edge and both endpoints.  Self-loops are allowed.
    @raise Invalid_argument if an edge with the same [id] already
    exists. *)

val remove_edge : t -> int -> t
(** Remove an edge by id; no-op when absent.  Endpoints stay. *)

val remove_node : t -> node -> t
(** Removes the node and all incident edges; no-op when absent. *)

val mem_node : t -> node -> bool
val find_edge : t -> int -> edge option

val nodes : t -> node list
(** Ascending order. *)

val edges : t -> edge list
(** Ascending id order. *)

val nb_nodes : t -> int
val nb_edges : t -> int

val neighbors : t -> node -> (node * int) list
(** [(neighbor, edge id)] pairs; absent node yields []. A self-loop
    appears once. *)

val degree : t -> node -> int
(** Number of incident edge endpoints (self-loop counts 2). *)

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a
val fold_edges : t -> init:'a -> f:('a -> edge -> 'a) -> 'a

val of_edges : (int * node * node) list -> t
(** [of_edges [(id, u, v); ...]] builds a graph in one pass. *)
