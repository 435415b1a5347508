(** Latitude bands and the paper's risk tiers.

    The paper tiers cables by the highest-|latitude| endpoint: [L > 60°]
    (high risk), [40° < L < 60°] (medium), [L < 40°] (low), treating the
    two hemispheres symmetrically (§4.3.3). *)

type tier = High | Mid | Low

val tier_of_abs_lat : ?mid_threshold:float -> ?high_threshold:float -> float -> tier
(** [tier_of_abs_lat l] classifies an absolute latitude; default thresholds
    40° and 60°.  Boundary values fall in the lower tier, matching the
    paper's strict inequalities.  @raise Invalid_argument if thresholds are
    not ordered [0 <= mid <= high]. *)

val tier_to_string : tier -> string

type histogram = {
  bin_deg : float;  (** width of each latitude bin, degrees *)
  counts : float array;  (** weight per bin, index 0 = [-90, -90+bin) *)
}
(** Weighted latitude histogram over [[-90, 90]], used for the Fig. 3 PDF
    curves. *)

val histogram : bin_deg:float -> (float * float) list -> histogram
(** [histogram ~bin_deg items] bins [(latitude, weight)] pairs.
    @raise Invalid_argument if [bin_deg <= 0.] or does not divide 180. *)

val pdf : histogram -> (float * float) list
(** [(bin-centre latitude, probability density %)] list: densities are
    normalized so that [sum (density * bin_deg) = 100.], matching the
    paper's "probability density function (%)" axis. *)

val fraction_above : (float * float) list -> threshold:float -> float
(** [fraction_above items ~threshold] is the weight fraction (0..1) of
    items whose [|latitude|] strictly exceeds [threshold].  Total weight of
    zero yields [0.]. *)

val threshold_curve : (float * float) list -> (float * float) list
(** Percentage-above-threshold curve for Fig. 4 at thresholds 0, 10, ...,
    90 degrees.  Result pairs are [(threshold, percent)]. *)
