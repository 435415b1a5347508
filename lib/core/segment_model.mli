(** Segment-level failure ablation.

    The paper assumes a single repeater failure kills the {e entire}
    multi-branch cable ("even a single repeater failure can leave all
    parallel fibers in the cable unusable", §3.2.1).  That is pessimistic
    for branched systems: in practice a branching unit can isolate a dead
    segment while other branches keep working.  This ablation fails each
    landing-to-landing hop independently (repeaters apportioned to hops by
    great-circle share) and measures how much of the paper's headline
    survives the assumption change. *)

type comparison = {
  cable_level_nodes_pct : float;  (** nodes unreachable, paper's model *)
  segment_level_nodes_pct : float;
      (** nodes unreachable, hop-level model: every incident hop dead *)
  segment_level_segments_pct : float;  (** hops failed, hop-level model *)
}

val trial_segments : Rng.t -> plan:Plan.t -> bool array
(** One hop-level trial against a compiled plan: element [i] is the death
    flag of the [i]-th hop in cable-major order (the edge order of
    {!Infra.Network.to_graph}).  Per-hop death probabilities are derived
    from the plan's per-repeater probabilities and the hop lengths, so
    this does {e not} consume the plan's per-cable draw sequence. *)

val compare_models :
  ?trials:int -> network:Infra.Network.t -> model:Failure_model.t -> unit -> comparison
(** Same failure state through both assumptions (default 10 trials, at
    seed 83 with repeaters every 150 km). *)
