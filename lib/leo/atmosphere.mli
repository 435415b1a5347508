(** Thermospheric density and its storm response.

    Geomagnetic storms heat the thermosphere; the expanded atmosphere
    multiplies drag on LEO satellites (§3.3).  The model is a single
    exponential above a 200 km anchor whose base density and scale height
    both grow with storm strength.  Calibration anchors (tests enforce
    them):

    - quiet density ≈ 2×10⁻¹³ kg/m³ at 550 km (moderate solar activity);
    - the February 2022 Starlink event: a minor storm (Dst ≈ −66 nT)
      raised drag at 210 km by ~50%;
    - the Halloween 2003 storms (Dst −383 nT): ~5× density at 400 km. *)

type conditions = { dst_nt : float (** ≤ 0; 0 = quiet *) }

val quiet : conditions

val of_storm : float -> conditions
(** [of_storm dst] for a Dst in nT.  @raise Invalid_argument if
    positive. *)

val density_kg_m3 : conditions -> alt_km:float -> float
(** Neutral density at altitude.  Valid for 150–1500 km; clamped
    outside.  @raise Invalid_argument for non-positive altitude. *)

val enhancement : conditions -> alt_km:float -> float
(** Storm density divided by quiet density at the same altitude (≥ 1):
    the drag multiplier. *)
