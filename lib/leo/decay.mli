(** Orbital decay under storm-enhanced drag. *)

type spacecraft = {
  name : string;
  mass_kg : float;
  drag_area_m2 : float;  (** effective frontal area (attitude-dependent) *)
  cd : float;  (** drag coefficient, ~2.2 *)
  thrust_n : float;  (** station-keeping thrust (0 for none) *)
}

val starlink_v1 : spacecraft
(** 260 kg, ion thruster, drag-minimized area ~3 m². *)

val thrust_margin : spacecraft -> Atmosphere.conditions -> alt_km:float -> float
(** Thrust acceleration over drag deceleration; > 1 means the vehicle can
    climb.  [infinity] in vacuum, 0 without a thruster. *)

val can_hold_altitude : spacecraft -> Atmosphere.conditions -> alt_km:float -> bool
(** [thrust_margin > 1]. *)

val altitude_after :
  spacecraft -> Atmosphere.conditions -> alt_km:float -> days:float -> float
(** Altitude (km) after coasting (no thrust) for the given duration,
    integrated in 10-minute steps; floors at {!Orbit.reentry_alt_km}.
    @raise Invalid_argument for negative duration. *)

val lifetime_days : spacecraft -> Atmosphere.conditions -> alt_km:float -> float
(** Days until reentry without thrust, capped at 36500. *)
