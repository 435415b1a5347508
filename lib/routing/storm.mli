(** Storm scenarios at the interdomain layer: BGP vs. multipath
    architectures (§5.3).

    ASes fail with latitude-tiered probabilities (their physical
    infrastructure sits in the vulnerable band).  Two recovery models are
    compared on the same failure draw:

    - {b BGP (single path)}: a source keeps connectivity {e through the
      event} only if its pre-storm best path survives; otherwise it must
      re-converge (possible only if the destination is still reachable);
    - {b multipath (SCION-like)}: the source holds [k] disjoint paths and
      keeps connectivity if any survives. *)

type outcome = {
  ases_down_pct : float;
  reachability_pct : float;
      (** alive pairs that remain reachable at all (protocol-independent
          upper bound) *)
  bgp_continuity_pct : float;  (** pairs whose single best path survived *)
  multipath_continuity_pct : float;  (** pairs with >= 1 of k paths alive *)
  mean_disjoint_paths : float;  (** pre-storm path diversity of the pairs *)
}

val tier_probabilities : dst_nt:float -> float * float * float
(** (high, mid, low) per-AS failure probabilities for a storm: S1-like
    for Carrington-class, S2-like for extreme storms, mild below. *)

val draw_failures : Rng.t -> As_topology.t -> dst_nt:float -> bool array
(** Alive mask after the storm. *)

val compare_protocols : ?pairs:int -> As_topology.t -> dst_nt:float -> outcome
(** Sample [pairs] (default 300) alive src/dst pairs on one failure draw
    (seed 29) and measure the four metrics, with [k] = 3 disjoint paths
    for multipath. *)
