(** Dst (disturbance storm time) index and storm severity classes.

    Dst measures the depression of the equatorial geomagnetic field in
    nanotesla; more negative means a stronger geomagnetic storm.  The paper
    anchors its scenarios to historical events: the 1989 Quebec storm
    (Dst −589 nT, "one-tenth the strength of 1921") and Carrington-scale
    events (estimates −850 to −1760 nT). *)

type severity =
  | Quiet        (** Dst > −30 nT *)
  | Minor        (** −50 < Dst ≤ −30 *)
  | Moderate     (** −100 < Dst ≤ −50 *)
  | Intense      (** −250 < Dst ≤ −100 *)
  | Severe       (** −600 < Dst ≤ −250 *)
  | Extreme      (** −850 < Dst ≤ −600: 1989-class and above *)
  | Carrington   (** Dst ≤ −850: superstorm class *)

val severity_of_dst : float -> severity
(** Classify a Dst value (nT).  @raise Invalid_argument on a positive
    value greater than +100 (not a storm-time Dst). *)

val severity_to_string : severity -> string

val compare_severity : severity -> severity -> int
(** Orders by strength: [Quiet] least, [Carrington] greatest. *)
