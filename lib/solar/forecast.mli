(** Early-warning model (§5.2: "How to use the lead time?").

    A CME is observed leaving the Sun (coronagraph detection within about
    an hour of launch); its magnetic orientation — which decides whether
    the storm is severe — is only measured at the L1 monitor, roughly
    1.5 million km upstream, minutes to an hour before impact.  The
    shutdown planner consumes the resulting timeline. *)

type timeline = {
  detection_delay_h : float;  (** launch → coronagraph detection *)
  transit_h : float;  (** launch → Earth impact *)
  l1_confirmation_h : float;  (** L1 crossing → impact *)
  actionable_lead_h : float;  (** detection → impact: the planning window *)
}

val timeline : Cme.t -> timeline
(** Timeline for one CME.  The actionable lead time is transit minus
    detection delay, and is at least 13 h for the fastest credible CMEs
    (§5.2). *)

val pp_timeline : Format.formatter -> timeline -> unit
