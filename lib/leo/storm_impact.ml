type shell_outcome = {
  shell : Constellation.shell;
  altitude_loss_km : float;
  can_station_keep : bool;
  lost_fraction : float;
}

type t = {
  dst_nt : float;
  storm_days : float;
  shells : shell_outcome list;
  injection_loss_fraction : float option;
  fleet_lost_fraction : float;
  coverage_before : float;
  coverage_after : float;
}

(* Dose-driven permanent electronics failures: exponential in storm
   strength, anchored at ~0.2% for Dst -589 (1989) and ~5% for -1200. *)
let electronics_failure_probability ~dst_nt =
  let x = Float.abs dst_nt in
  Float.min 0.5 (0.002 *. exp ((x -. 589.0) /. 190.0))

let users =
  (* Coarse world-population latitude profile (share per band centre). *)
  [ (-45.0, 0.4); (-35.0, 1.5); (-25.0, 2.6); (-15.0, 3.5); (-5.0, 5.9);
    (5.0, 8.4); (15.0, 13.8); (25.0, 27.5); (35.0, 21.6); (45.0, 10.3);
    (55.0, 4.4); (65.0, 0.3) ]

let assess ?(storm_days = 3.0) ?injection_batch ~dst_nt constellation =
  let spacecraft = Decay.starlink_v1 in
  let conditions = Atmosphere.of_storm dst_nt in
  let p_elec = electronics_failure_probability ~dst_nt in
  let shells =
    List.map
      (fun (shell : Constellation.shell) ->
        let can_station_keep =
          Decay.can_hold_altitude spacecraft conditions ~alt_km:shell.Constellation.alt_km
        in
        let altitude_loss_km =
          shell.Constellation.alt_km
          -. Decay.altitude_after spacecraft conditions ~alt_km:shell.Constellation.alt_km
               ~days:storm_days
        in
        (* Losses: electronics dose always applies; drag kills the shell's
           satellites only if they cannot station-keep AND the storm-time
           coasting would drop them to reentry. *)
        let drag_lost =
          if can_station_keep then 0.0
          else
            let final =
              Decay.altitude_after spacecraft conditions ~alt_km:shell.Constellation.alt_km
                ~days:storm_days
            in
            if final <= Orbit.reentry_alt_km +. 5.0 then 1.0
            else if altitude_loss_km > 50.0 then 0.3 (* scattered, some unrecoverable *)
            else 0.0
        in
        let lost_fraction = Float.min 1.0 (p_elec +. drag_lost) in
        { shell; altitude_loss_km; can_station_keep; lost_fraction })
      constellation.Constellation.shells
  in
  let injection_loss_fraction =
    Option.map
      (fun alt_km ->
        (* A batch parked at injection altitude survives if its thruster
           can out-accelerate the storm-enhanced drag and climb out; the
           loss fraction scales with the thrust margin shortfall.  At
           Dst -66 nT and 210 km this yields ~0.75-0.8 — the February
           2022 event lost 38 of 49 vehicles. *)
        let margin = Decay.thrust_margin spacecraft conditions ~alt_km in
        Float.min 1.0 (Float.max 0.0 (3.5 *. (1.0 -. margin))))
      injection_batch
  in
  let total = float_of_int (Constellation.size constellation) in
  let lost =
    List.fold_left
      (fun acc o ->
        acc +. (o.lost_fraction *. float_of_int (Constellation.shell_size o.shell)))
      0.0 shells
  in
  let fleet_lost_fraction = if total <= 0.0 then 0.0 else lost /. total in
  let coverage_before = Constellation.coverage_fraction constellation users in
  (* Coverage after: thin each shell by its loss fraction. *)
  let after : Constellation.t =
    {
      constellation with
      Constellation.shells =
        List.map
          (fun o ->
            let keep = 1.0 -. o.lost_fraction in
            {
              o.shell with
              Constellation.sats_per_plane =
                int_of_float
                  (Float.round (float_of_int o.shell.Constellation.sats_per_plane *. keep));
            })
          shells;
    }
  in
  let coverage_after = Constellation.coverage_fraction after users in
  {
    dst_nt;
    storm_days;
    shells;
    injection_loss_fraction;
    fleet_lost_fraction;
    coverage_before;
    coverage_after;
  }

let feb_2022_starlink () =
  assess ~dst_nt:(-66.0) ~storm_days:1.0 ~injection_batch:210.0
    Constellation.starlink_phase1

let pp ppf t =
  Format.fprintf ppf "@[<v>storm Dst %.0f nT over %.1f d:@," t.dst_nt t.storm_days;
  List.iter
    (fun o ->
      Format.fprintf ppf "  %-8s %4.0f km: holds altitude %b, coast loss %5.1f km, lost %4.1f%%@,"
        o.shell.Constellation.name o.shell.Constellation.alt_km o.can_station_keep
        o.altitude_loss_km (100.0 *. o.lost_fraction))
    t.shells;
  (match t.injection_loss_fraction with
  | Some f -> Format.fprintf ppf "  injection batch: %.0f%% lost@," (100.0 *. f)
  | None -> ());
  Format.fprintf ppf "  fleet lost %.1f%%; coverage %.1f%% -> %.1f%%@]"
    (100.0 *. t.fleet_lost_fraction) (100.0 *. t.coverage_before)
    (100.0 *. t.coverage_after)
