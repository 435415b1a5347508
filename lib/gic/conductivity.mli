(** Layered-earth conductivity profiles and plane-wave surface impedance.

    The geoelectric field driving GIC depends on the resistivity of the
    crust and upper mantle (§3.1 of the paper).  We model the ground as a
    stack of uniform layers over a half-space and compute the complex
    surface impedance [Z(ω)] with the standard 1-D magnetotelluric
    recursion.  Seawater is highly conductive, which {e increases} the
    surface-layer conductance and the achievable GIC (the paper's New
    Zealand example: 1–500 S on land vs 100–24,000 S in the ocean). *)

type layer = {
  thickness_km : float;  (** layer thickness; ignored for the half-space *)
  resistivity_ohm_m : float;
}

type profile = {
  name : string;
  layers : layer list;  (** top first; last entry is the half-space *)
}

val make_profile : name:string -> layer list -> profile
(** @raise Invalid_argument on an empty layer list or non-positive
    resistivity/thickness. *)

val shield : profile
(** Resistive Precambrian shield (e.g. Canadian/Fennoscandian shield):
    worst case on land, large E fields. *)

val plains : profile
(** Sedimentary continental interior: moderately conductive. *)

val coastal : profile
(** Conductive coastal margin. *)

val ocean : profile
(** Deep ocean: 4 km of seawater (0.3 Ω·m) over oceanic crust. *)

val profile_for : Geo.Coord.t -> profile
(** Heuristic profile assignment: ocean off-land, shield above 55°
    absolute latitude on land, plains otherwise. *)

val surface_impedance : profile -> angular_freq:float -> Complex.t
(** [surface_impedance p ~angular_freq] is [Z(ω)] in Ω (SI field units:
    E = Z·H).  @raise Invalid_argument if [angular_freq <= 0.]. *)

val impedance_magnitude : profile -> period_s:float -> float
(** [|Z|] at the given period, Ω. *)

val mu0 : float
(** Vacuum permeability, H/m. *)
