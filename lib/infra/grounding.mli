(** Grounding (sea-earth) points along a cable (§3.2.2).

    GIC enters and exits the power-feeding line where the conductor is
    grounded.  Short unrepeatered cables (< 50 km) need no ground; longer
    cables are grounded at the two landing stations and at intermediate
    points — branching units — every few hundred to a few thousand
    kilometres (Equiano: 9 branching units over ~12,000 km). *)

val chainages : ?interval_km:float -> length_km:float -> unit -> float list
(** Chainages (km from cable start) of every ground, endpoints included,
    with intermediate grounds every [interval_km] (default 1,400 km,
    Equiano-like).  [[]] for a cable under 50 km, which needs no ground.
    @raise Invalid_argument if [interval_km <= 0.] or [length_km < 0.]. *)
