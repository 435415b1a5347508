(** Internet-systems resilience analysis (§4.4): Autonomous Systems,
    hyperscale data centers and DNS root servers. *)

type as_summary = {
  total : int;
  reach_above_40_pct : float;  (** Fig. 9a at 40° *)
  median_spread_deg : float;  (** Fig. 9b median *)
  p90_spread_deg : float;
  reach_curve : (float * float) list;  (** (threshold, % of ASes) — Fig. 9a *)
  spread_cdf : (float * float) list;  (** Fig. 9b *)
}

val analyze_ases : Datasets.Caida.asys array -> as_summary

type dc_summary = {
  operator : Datasets.Datacenters.operator;
  sites : int;
  continents : int;
  latitude_spread_deg : float;
  share_above_40_pct : float;
  resilience_score : float;  (** {!resilience_score} of the fleet *)
}

val analyze_datacenters : unit -> dc_summary list
(** Google and Facebook, Google first.  The paper's conclusion — Google
    more resilient than Facebook — must show as a higher score. *)

type dns_summary = {
  instances : int;
  letters : int;
  continents : int;
  share_above_40_pct : float;
  resilience_score : float;
}

val analyze_dns : Datasets.Dns_roots.instance array -> dns_summary

val resilience_score : (float * float) list -> float
(** Geo-resilience score in [[0, 1]] for weighted latitudes: the product
    of (a) the share of weight outside the vulnerable |40°|+ band and (b)
    the evenness (normalized entropy) of the weight across 30°-wide
    latitude bands.  Higher is better; a fleet concentrated above 40°
    scores near 0. *)
