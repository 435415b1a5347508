(** Coronal mass ejections: kinematics, Earth-transit time and expected
    geomagnetic response.

    The transit model integrates a drag-based equation of motion (Vršnak's
    drag-based model, DBM): the ejecta relaxes towards the ambient solar
    wind speed, so fast CMEs decelerate.  It reproduces the observational
    anchors the paper cites: the Carrington CME (~2700 km/s launch)
    arriving in ≈ 17.6 h and a typical 13-hour-to-5-day range (§2.1). *)

type t = {
  speed_km_s : float;  (** launch speed near the Sun, km/s *)
  southward_b_nt : float;  (** southward IMF magnitude carried, nT (≥ 0) *)
}

val make : ?southward_b_nt:float -> speed_km_s:float -> unit -> t
(** Build a CME.  The southward field defaults to one scaled from speed
    (fast CMEs carry stronger fields).  @raise Invalid_argument if the
    speed is outside [(0, 5000]] km/s (faster than any observed CME). *)

val transit_hours : t -> float
(** Drag-based Sun-to-Earth transit time in hours, through a 450 km/s
    ambient solar wind. *)

val arrival_speed_km_s : t -> float
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
