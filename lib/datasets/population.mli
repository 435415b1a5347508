(** Gridded world population, reduced to its latitude marginal.

    Substitutes NASA SEDAC GPWv4 (DESIGN.md §1): the paper's Figures 3 and
    4 only consume population as a function of latitude, so we embed the
    10°-band shares of the 2020 gridded population (normalized) and
    interpolate.  Headline property preserved: ≈ 16% of the world
    population lives above |40°|. *)

val band_shares : (float * float * float) list
(** [(lat_lo, lat_hi, share)] with shares summing to 1. *)

val share_between : lat_lo:float -> lat_hi:float -> float
(** Population share in a latitude interval (linear interpolation within
    the embedded bands).  @raise Invalid_argument if [lat_hi < lat_lo]. *)

val fraction_above : float -> float
(** [fraction_above t] is the share living above |latitude| [t]. *)

val latitude_weights : bin_deg:float -> (float * float) list
(** [(band-centre latitude, weight)] pairs suitable for
    {!Geo.Latband.histogram} / [threshold_curve].  @raise Invalid_argument
    if [bin_deg] does not divide 180. *)
