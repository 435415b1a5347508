(** Valley-free (Gao–Rexford) interdomain routing over an AS topology.

    A BGP path ascends provider links, crosses at most one peer link, and
    descends customer links.  Reachability and shortest valley-free paths
    are computed with a phase-layered BFS; every function takes an
    [alive] mask so storm scenarios can knock ASes out. *)

val all_alive : As_topology.t -> bool array

val reachable : As_topology.t -> alive:bool array -> src:int -> dst:int -> bool
(** Valley-free reachability using only alive ASes (src and dst must be
    alive themselves). *)

val reachability_fraction : As_topology.t -> alive:bool array -> dst:int -> float
(** Fraction of alive ASes (dst excluded) with a valley-free route to
    [dst]. *)

val disjoint_paths :
  ?k:int -> As_topology.t -> alive:bool array -> src:int -> dst:int -> int list list
(** Up to [k] (default 3) valley-free paths with pairwise-disjoint
    intermediate ASes, found greedily (successive shortest paths with
    intermediate removal) — the "multiple paths" a SCION-like
    architecture keeps ready.  Each path lists its ASes, ends included;
    the first is a shortest valley-free path, ties broken
    deterministically, and [[src]] when [src = dst]. *)

val is_valley_free : As_topology.t -> int list -> bool
(** Checks the Gao–Rexford shape of an explicit path (used by tests). *)
