(** Walker-delta LEO constellations and their ground coverage.

    A shell is a set of circular orbits at one altitude/inclination with
    satellites spread over evenly spaced planes.  Coverage uses the
    standard statistical model: the long-run surface density of a shell's
    satellites at latitude φ is

    [f(φ) = N / (2 π² R² √(sin² i − sin² φ) / cos φ)]⁻¹-ish, i.e.
    density ∝ 1/√(sin²i − sin²φ), diverging toward the inclination
    latitude and zero beyond it. *)

type shell = {
  name : string;
  alt_km : float;
  inclination_deg : float;
  planes : int;
  sats_per_plane : int;
}

type t = { name : string; shells : shell list }

val shell_size : shell -> int
val size : t -> int

val starlink_phase1 : t
(** The FCC-filed Starlink phase-1 shells (~4,400 satellites at
    540–570 km plus the 560 km polar shells). *)

val coverage_cap_deg : shell -> elevation_mask_deg:float -> float
(** Earth-central half-angle of one satellite's coverage cap. *)

val visible_satellites : t -> lat_deg:float -> elevation_mask_deg:float -> float
(** Expected number of the constellation's satellites above the elevation
    mask for a user at the given latitude (0 where no shell reaches). *)

val coverage_fraction : t -> (float * float) list -> float
(** Population-weighted fraction of [(latitude, weight)] users with
    coverage above a 25° elevation mask. *)
