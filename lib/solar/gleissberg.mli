(** The centennial Gleissberg cycle (§2.3 of the paper).

    An 80–100-year modulation of solar-maximum strength: the frequency of
    high-impact events varies by about a factor of 4 across Gleissberg
    phases (McCracken et al. 2004).  The 20th-century minimum was near
    1910; the recent cycles 23–24 sit in the current minimum, which is why
    the paper argues the Internet grew up during anomalously quiet
    decades. *)

val modulation : float -> float
(** [modulation year] is a multiplicative factor in [[0.5, 2.0]] applied to
    extreme-event rates: 0.5 at a Gleissberg minimum, 2.0 at a maximum
    (factor 4 swing).  The model's minima fall every 88 years (its
    nominal period) from the 20th-century minimum of 1910, with the
    maxima half a period after them. *)

val next_maximum_after : float -> float
(** Decimal year of the first Gleissberg maximum after the given year. *)
