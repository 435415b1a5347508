(** The centennial Gleissberg cycle (§2.3 of the paper).

    An 80–100-year modulation of solar-maximum strength: the frequency of
    high-impact events varies by about a factor of 4 across Gleissberg
    phases (McCracken et al. 2004).  The 20th-century minimum was near
    1910; the recent cycles 23–24 sit in the current minimum, which is why
    the paper argues the Internet grew up during anomalously quiet
    decades. *)

val period_years : float
(** Nominal period used by the model (88 years). *)

val reference_minimum : float
(** Decimal year of the 20th-century Gleissberg minimum (1910). *)

val phase : float -> float
(** [phase year] in [[0, 1)]: 0 at a Gleissberg minimum. *)

val modulation : float -> float
(** [modulation year] is a multiplicative factor in [[0.5, 2.0]] applied to
    extreme-event rates: 0.5 at a Gleissberg minimum, 2.0 at a maximum
    (factor 4 swing). *)

val next_maximum_after : float -> float
(** Decimal year of the first Gleissberg maximum after the given year. *)
