(** Repeater-failure models (§4.3 of the paper).

    The paper sweeps a {e uniform} per-repeater failure probability
    (Figs 6–7) and two {e latitude-tiered} states S1/S2 that assign each
    cable a per-repeater probability from the tier of its
    highest-|latitude| endpoint (Fig. 8).  A third, physics-based model
    maps the GIC computed by the [Gic]/[Infra.Exposure] pipeline to a
    failure probability — the extension ablation of DESIGN.md. *)

type t =
  | Uniform of float  (** same probability for every repeater *)
  | Latitude_tiered of {
      high : float;  (** |lat| > high_threshold *)
      mid : float;  (** mid_threshold < |lat| <= high_threshold *)
      low : float;  (** |lat| <= mid_threshold *)
      mid_threshold : float;
      high_threshold : float;
    }
  | Gic_physical of {
      dst_nt : float;  (** storm strength driving the GIC pipeline *)
      scale_a : float;  (** GIC amps at which failure probability is 1−1/e *)
    }
  | Geomag_tiered of {
      high : float;
      mid : float;
      low : float;
      mid_threshold : float;
      high_threshold : float;
    }
      (** Like {!Latitude_tiered} but tiers come from the maximum
          |{e geomagnetic} (dipole) latitude| over the cable's landings —
          the physically motivated variant (auroral electrojets organize
          around the geomagnetic pole, which sits over arctic Canada, so
          North Atlantic routes gain ~10°).  The ablation of
          EXPERIMENTS.md §4.3.4. *)

val uniform : float -> t
(** @raise Invalid_argument if the probability is outside [[0, 1]]. *)

val s1 : t
(** High-failure state: [1; 0.1; 0.01] across tiers (>60°, 40–60°, <40°). *)

val s2 : t
(** Low-failure state: [0.1; 0.01; 0.001]. *)

val tiered : high:float -> mid:float -> low:float -> t
(** Tiered model with the paper's 40°/60° thresholds.
    @raise Invalid_argument if any probability is outside [[0, 1]]. *)

val s1_geomag : t
(** S1's probabilities with geomagnetic-latitude tiers. *)

val s2_geomag : t
(** S2's probabilities with geomagnetic-latitude tiers. *)

val of_string : string -> (t, string) result
(** Parse a model spec as the CLI and the HTTP service accept it:
    [s1 | s2 | physical | s1-geomag | s2-geomag], or a bare probability
    in [[0, 1]] meaning {!uniform}.  [physical] is {!Gic_physical} at
    Dst −1200 nT with a 30 A damage scale.  Case-insensitive; [Error]
    carries a usage message. *)

val to_string : t -> string

val compile : t -> network:Infra.Network.t -> Infra.Cable.t -> float
(** [compile model ~network] is the per-repeater failure probability
    function for cables of [network].  For {!Gic_physical} the full
    network exposure is computed once at compile time (partial
    application: [let p = compile model ~network in ...]). *)

val cable_death_prob :
  per_repeater:float -> spacing_km:float -> Infra.Cable.t -> float
(** Probability that at least one of the cable's repeaters fails:
    [1 - (1-p)^n].  A cable with no repeater never dies. *)
