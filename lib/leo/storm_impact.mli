(** Storm impact on a LEO constellation (§3.3): drag episodes, radiation
    damage, and the resulting service loss.

    Three damage channels:
    - {b drag}: satellites whose thrusters cannot beat the storm-enhanced
      drag lose altitude for the storm's duration; vehicles parked at low
      injection altitudes (the February 2022 Starlink batch at 210 km)
      reenter;
    - {b electronics}: charged-particle dose causes permanent failures
      with probability growing with storm strength (§3.3 "damage to
      electronic components");
    - {b service}: the paper's §3.3 notes that satellites are blind
      during the event itself; afterwards coverage reflects the surviving
      fleet. *)

type shell_outcome = {
  shell : Constellation.shell;
  altitude_loss_km : float;  (** coasting loss over the storm for non-thrusting craft *)
  can_station_keep : bool;  (** thrusters beat peak drag at shell altitude *)
  lost_fraction : float;
      (** satellites permanently lost in this shell: the per-satellite
          particle-dose failure probability (~0.2% for a 1989-class
          storm, ~5% for Carrington-class, at most 50%), plus drag
          losses when the shell cannot station-keep *)
}

type t = {
  dst_nt : float;
  storm_days : float;
  shells : shell_outcome list;
  injection_loss_fraction : float option;
      (** loss among a low-altitude injection batch, when one was flying *)
  fleet_lost_fraction : float;
  coverage_before : float;
  coverage_after : float;  (** population-weighted, 25° mask *)
}

val assess :
  ?storm_days:float ->
  ?injection_batch:float (* altitude km *) ->
  dst_nt:float ->
  Constellation.t ->
  t
(** Assess a storm against a constellation of {!Decay.starlink_v1}
    spacecraft.  [storm_days] defaults to 3; [injection_batch] adds a
    batch parked at the given altitude (set 210.0 to replay February
    2022).  Coverage is weighted by a coarse world population latitude
    profile. *)

val feb_2022_starlink : unit -> t
(** The calibration scenario: Dst −66 nT, batch at 210 km.  The batch is
    mostly lost; the operational shells are untouched. *)

val pp : Format.formatter -> t -> unit
