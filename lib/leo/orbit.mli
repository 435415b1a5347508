(** Circular low-Earth-orbit mechanics.

    The satellite-impact analysis (§3.3 of the paper: "orbital decay and
    uncontrolled reentry ... particularly in low earth orbit satellites
    such as Starlink") only needs circular-orbit energetics: period,
    speed, and the decay rate under drag. *)

val earth_radius_m : float

val semi_major_m : alt_km:float -> float
(** Semi-major axis of a circular orbit at the given altitude.
    @raise Invalid_argument for altitudes ≤ 0 or above 10,000 km (not
    LEO). *)

val period_s : alt_km:float -> float
(** Orbital period. *)

val speed_m_s : alt_km:float -> float
(** Orbital speed. *)

val decay_rate_m_per_s :
  alt_km:float -> density_kg_m3:float -> ballistic_m2_kg:float -> float
(** [da/dt] of the semi-major axis under drag: [-sqrt(mu a) ρ B] with
    ballistic coefficient [B = Cd A / m].  Negative (the orbit shrinks). *)

val drag_acceleration_m_s2 :
  alt_km:float -> density_kg_m3:float -> ballistic_m2_kg:float -> float
(** Instantaneous drag deceleration [ρ v² B], the quantity a satellite's
    thruster must beat to hold altitude. *)

val reentry_alt_km : float
(** Altitude treated as atmospheric reentry (120 km). *)
