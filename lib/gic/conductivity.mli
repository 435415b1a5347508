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

val profile_for : Geo.Coord.t -> profile
(** Heuristic profile assignment, one of four:
    - ["ocean"] off land: 4 km of seawater (0.3 Ω·m) over oceanic crust;
    - ["shield"] above 55° absolute latitude on land: resistive
      Precambrian shield (e.g. Canadian/Fennoscandian), the worst case
      on land, with large E fields;
    - ["coastal"] below 20° on land: a conductive coastal margin;
    - ["plains"] otherwise: a moderately conductive sedimentary
      continental interior. *)

val impedance_magnitude : profile -> period_s:float -> float
(** [|Z(ω)|] at the given period, Ω (SI field units: E = Z·H), with
    [ω = 2π / period_s].  @raise Invalid_argument unless [period_s] is
    finite and positive (so also for NaN). *)

val mu0 : float
(** Vacuum permeability, H/m. *)
