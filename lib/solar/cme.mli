(** Coronal mass ejections: kinematics, Earth-transit time and expected
    geomagnetic response.

    The transit model integrates a drag-based equation of motion (Vršnak's
    drag-based model, DBM): the ejecta relaxes towards the ambient solar
    wind speed, so fast CMEs decelerate.  It reproduces the observational
    anchors the paper cites: the Carrington CME (~2700 km/s launch)
    arriving in ≈ 17.6 h and a typical 13-hour-to-5-day range (§2.1). *)

type t = {
  speed_km_s : float;  (** launch speed near the Sun, km/s *)
  angular_width_deg : float;  (** apparent angular width *)
  southward_b_nt : float;  (** southward IMF magnitude carried, nT (≥ 0) *)
  direction_offset_deg : float;
      (** angle between CME axis and the Sun–Earth line; 0 = head-on *)
}

val make :
  ?angular_width_deg:float ->
  ?southward_b_nt:float ->
  ?direction_offset_deg:float ->
  speed_km_s:float ->
  unit ->
  t
(** Build a CME.  Defaults: width 60°, southward field scaled from speed
    (fast CMEs carry stronger fields), head-on.  @raise Invalid_argument if the
    speed is outside [(0, 5000]] km/s (faster than any observed CME). *)

val transit_hours : ?solar_wind_km_s:float -> t -> float
(** Drag-based Sun-to-Earth transit time in hours. *)

val arrival_speed_km_s : ?solar_wind_km_s:float -> t -> float
(** Speed at 1 AU after drag. *)

val expected_dst : t -> float
(** Expected minimum Dst (nT, negative) from the empirical coupling of
    arrival speed and southward field (Burton/O'Brien-style scaling). *)

val carrington_1859 : t
val new_york_railroad_1921 : t
val quebec_1989 : t
val halloween_2003 : t
val near_miss_2012 : t
(** Reconstructed parameter sets for the historical events discussed in
    §2.2 of the paper. *)
