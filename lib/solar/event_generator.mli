(** Stochastic storm sequences over multi-year horizons.

    Draws CME-driven geomagnetic storms as an inhomogeneous Poisson
    process whose rate follows the solar cycle and Gleissberg modulation
    ({!Probability.modulated_rate}); storm magnitudes follow the Riley
    power-law tail.  Used for decadal risk studies (what does the 2021–
    2050 window hold?) and to drive repeated infrastructure scenarios. *)

type event = {
  year : float;  (** decimal year of impact *)
  dst_nt : float;  (** minimum Dst, negative *)
  severity : Dst.severity;
}

val generate :
  ?min_dst:float ->
  ?base_rate_per_year:float ->
  rng:Rng.t ->
  start:float ->
  stop:float ->
  unit ->
  event list
(** Storms with |Dst| ≥ [min_dst] (default 100 nT, i.e. intense and
    above) over [start, stop], chronological.  [base_rate_per_year] is
    the long-run rate of ≥ [min_dst] storms before modulation (default
    from the calibrated power-law tail).
    @raise Invalid_argument if [stop < start] or [min_dst < 0]. *)

val worst : event list -> event option
(** Deepest-Dst event of a sequence. *)

val carrington_in_window :
  ?trials:int -> seed:int -> start:float -> stop:float -> unit -> float
(** Monte-Carlo probability that the window contains at least one
    Carrington-class (|Dst| ≥ 850) impact. *)
