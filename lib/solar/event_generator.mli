(** Stochastic storm sequences over multi-year horizons.

    Draws CME-driven geomagnetic storms as an inhomogeneous Poisson
    process whose rate follows the solar cycle and Gleissberg modulation
    ({!Probability.modulated_rate}); storm magnitudes follow the Riley
    power-law tail.  Used for decadal risk studies (what does the 2021–
    2050 window hold?) and to drive repeated infrastructure scenarios. *)

type event = {
  year : float;  (** decimal year of impact *)
  dst_nt : float;  (** minimum Dst, negative *)
}

val generate : rng:Rng.t -> start:float -> stop:float -> unit -> event list
(** Storms with |Dst| ≥ 100 nT (intense and above) over [start, stop],
    chronological.  The long-run rate of such storms before modulation
    comes from the calibrated power-law tail
    ({!Probability.events_per_year_exceeding}).
    @raise Invalid_argument if [stop < start]. *)

val carrington_in_window :
  ?trials:int -> seed:int -> start:float -> stop:float -> unit -> float
(** Monte-Carlo probability that the window contains at least one
    Carrington-class (|Dst| ≥ 850) impact. *)
