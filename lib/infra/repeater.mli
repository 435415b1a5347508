(** Optical repeaters on long-haul cables (§3.2.1).

    Repeaters are fed in series at ≈ 1 A over the power-feeding conductor
    and spaced 50–150 km apart in practical deployments.  GIC during a
    superstorm can reach ~100× the operating current, which is the damage
    mechanism the paper's failure models abstract. *)

type spec = {
  spacing_km : float;  (** inter-repeater distance *)
  operating_current_a : float;  (** nominal feed current, ≈ 1 A *)
  lifetime_years : float;  (** design lifetime (25 y, §3.2.2) *)
}

val default : spacing_km:float -> spec
(** Spec with the paper's nominal electrical figures at the given spacing.
    @raise Invalid_argument if [spacing_km <= 0.]. *)

val paper_spacings_km : float list
(** The three spacings swept in Figs 6–8: [[50.; 100.; 150.]]. *)

val count_for_length : spacing_km:float -> length_km:float -> int
(** Number of repeaters a cable of the given length needs: one per full
    [spacing_km] of length, none for cables at or below one spacing
    (matching the paper: 82/441 submarine cables need none at 150 km).
    Never increases with [spacing_km]: it saturates at [max_int] for a
    spacing vanishingly small against the length.
    @raise Invalid_argument on non-positive spacing or negative length. *)
