(** Geomagnetic disturbance amplitude as a function of storm strength and
    geomagnetic latitude.

    Captures the three latitude facts the paper's failure models encode
    (§3.1): (i) higher latitudes see far stronger field variations; (ii)
    the disturbed region expands equatorward as storms strengthen (the
    1989 storm's fields dropped an order of magnitude below 40°; the
    Carrington event reached ≈ 20°); and (iii) small equatorial GIC exists
    but is much weaker (electrojet effects). *)

type storm = { dst_nt : float  (** minimum Dst, negative nT *) }

val storm_of_dst : float -> storm
(** The storm of a minimum Dst.
    @raise Invalid_argument if [dst > 0.]. *)

val auroral_boundary_deg : storm -> float
(** Equatorward edge (geomagnetic degrees) of the strongly disturbed
    region.  ≈ 62° for an intense (−100 nT) storm, ≈ 40° for 1989-class,
    ≈ 25° for Carrington-class.  Clamped to [[15, 70]]. *)

val latitude_factor : storm -> geomag_lat:float -> float
(** Relative disturbance amplitude in [[floor, 1]] at a geomagnetic
    latitude: a sigmoid across the auroral boundary with an equatorial
    floor of 0.03 plus a small electrojet bump within 3° of the magnetic
    equator. *)

val db_at : storm -> Geo.Coord.t -> float
(** Field deviation amplitude (nT) at a geographic location, combining
    the auroral-zone peak deviation, {!latitude_factor} and the
    dipole-latitude mapping. *)
