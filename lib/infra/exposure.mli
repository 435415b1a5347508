(** Physics-based GIC exposure of a concrete cable in a network.

    Bridges the infrastructure model to the [Gic] library: reconstructs
    the cable's great-circle route from its landing chain, places the
    grounding points, and computes the peak quasi-DC current through the
    power-feeding line for a given storm.  This is the model extension
    that replaces the paper's purely probabilistic repeater-failure knob
    in the physics ablation (DESIGN.md §3). *)

type t = { peak_gic_a : float }

val of_cable : storm:Gic.Disturbance.storm -> network:Network.t -> Cable.t -> t
(** Exposure of one cable under a storm, grounded at its
    {!Grounding.chainages}. *)

val failure_probability : ?scale_a:float -> t -> float
(** Maps the peak GIC to a per-repeater failure probability through a
    saturating exponential: [1 - exp (-peak_gic / scale_a)].  [scale_a]
    defaults to 30 A (repeaters survive small GIC; a 100 A Carrington-class
    surge is near-certain destruction). *)

val network_exposures : storm:Gic.Disturbance.storm -> Network.t -> t array
(** Exposure of every cable, indexed by cable id.  Memoized: the last
    {!cache_capacity} distinct [(network, storm)] keys are
    kept, the network compared by physical identity, so repeated calls
    (one storm compiled at several damage scales) evaluate each cable
    once.  Each call returns a fresh array.  Safe to call from concurrent
    domains. *)

val cache_capacity : int
(** Number of exposure sets {!network_exposures} keeps. *)
