(** Solar-cycle model: sunspot-number series for cycles 12–25.

    Uses the Hathaway (1994) cycle-shape function
    [R(t) = A (t/b)^3 / (exp((t/b)^2) - c)] with per-cycle amplitude and
    published start dates.  Cycle 25 carries two published forecasts the
    paper contrasts: the consensus-panel "weak" forecast (peak ≈ 115) and
    the McIntosh et al. 2020 "strong" forecast (peak ≈ 233, range
    210–260). *)

type cycle = {
  number : int;
  start_year : float;  (** decimal year of cycle minimum *)
  peak_ssn : float;  (** smoothed sunspot number at maximum *)
}

val cycles : cycle list
(** Cycles 12 (1878) through 24 (2008–2019), peak SSN from the SILSO v2
    record, plus cycle 25 with the consensus forecast. *)

val cycle_25_weak : cycle
val cycle_25_strong : cycle
(** The two cycle-25 forecasts discussed in §2.3. *)

val shape : amplitude:float -> months_since_min:float -> float
(** Hathaway shape function: SSN at [months_since_min] for a cycle of the
    given amplitude.  Zero before the minimum. *)

val ssn_at : ?cycle25:cycle -> float -> float
(** [ssn_at year] is the modeled smoothed sunspot number at a decimal year
    (1878–2035), summing overlapping cycle shapes.  [cycle25] selects the
    forecast used for years ≥ 2020 (default {!cycle_25_weak}). *)

val series :
  ?cycle25:cycle -> start:float -> stop:float -> step:float -> unit -> (float * float) list
(** Sampled [(year, ssn)] series.  @raise Invalid_argument if
    [step <= 0.] or [stop < start]. *)
