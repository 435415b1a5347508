(* Tests for the LEO satellite substrate (paper section 3.3): orbital
   mechanics, storm-heated thermosphere, drag decay, constellations and
   storm impact.  Calibration anchors are real events. *)

(* Two vehicles without a thruster: a Starlink v1 "sheet-flying" in safe
   mode as in the Feb 2022 event (larger effective area, thruster
   unavailable) and a passive 4 kg 3U cubesat. *)
let starlink_v1_safe_mode =
  { Leo.Decay.name = "starlink-v1-safe"; mass_kg = 260.0; drag_area_m2 = 12.0; cd = 2.2;
    thrust_n = 0.0 }

let cubesat_3u =
  { Leo.Decay.name = "cubesat-3u"; mass_kg = 4.0; drag_area_m2 = 0.03; cd = 2.2; thrust_n = 0.0 }

(* --- Orbit --- *)

let test_iss_period () =
  (* ISS at ~420 km: period ~92.8 min, one circumference at orbital
     speed. *)
  let p =
    2.0 *. Float.pi *. Leo.Orbit.semi_major_m ~alt_km:420.0
    /. Leo.Orbit.speed_m_s ~alt_km:420.0 /. 60.0
  in
  Alcotest.(check bool) (Printf.sprintf "%.1f min in [91, 94]" p) true (p > 91.0 && p < 94.0)

let test_leo_speed () =
  (* ~7.6 km/s at 550 km. *)
  let v = Leo.Orbit.speed_m_s ~alt_km:550.0 /. 1000.0 in
  Alcotest.(check bool) (Printf.sprintf "%.2f km/s in [7.4, 7.8]" v) true (v > 7.4 && v < 7.8)

let test_orbit_validation () =
  Alcotest.check_raises "zero altitude"
    (Invalid_argument "Orbit.semi_major_m: altitude outside (0, 10000] km") (fun () ->
      ignore (Leo.Orbit.semi_major_m ~alt_km:0.0))

let test_decay_rate_negative () =
  let rate =
    Leo.Orbit.decay_rate_m_per_s ~alt_km:400.0 ~density_kg_m3:1e-12 ~ballistic_m2_kg:0.005
  in
  Alcotest.(check bool) "orbit shrinks" true (rate < 0.0)

(* --- Atmosphere --- *)

let test_quiet_density_anchors () =
  (* Moderate-activity references: ~2-4e-10 at 200 km, ~2e-13 at 550 km. *)
  let d200 = Leo.Atmosphere.density_kg_m3 Leo.Atmosphere.quiet ~alt_km:200.0 in
  let d550 = Leo.Atmosphere.density_kg_m3 Leo.Atmosphere.quiet ~alt_km:550.0 in
  Alcotest.(check bool) "200 km" true (d200 > 1e-10 && d200 < 5e-10);
  Alcotest.(check bool) "550 km" true (d550 > 5e-14 && d550 < 5e-13)

let test_density_decreases_with_altitude () =
  let c = Leo.Atmosphere.of_storm (-400.0) in
  let d300 = Leo.Atmosphere.density_kg_m3 c ~alt_km:300.0 in
  let d600 = Leo.Atmosphere.density_kg_m3 c ~alt_km:600.0 in
  Alcotest.(check bool) "monotone" true (d300 > d600)

let test_feb2022_drag_anchor () =
  (* The Feb 2022 event (Dst ~ -66): ~50% drag increase at 210 km. *)
  let e = Leo.Atmosphere.enhancement (Leo.Atmosphere.of_storm (-66.0)) ~alt_km:210.0 in
  Alcotest.(check bool) (Printf.sprintf "%.2f in [1.2, 1.8]" e) true (e > 1.2 && e < 1.8)

let test_halloween_2003_anchor () =
  (* Halloween storms (Dst -383): roughly 4-8x density at 400 km. *)
  let e = Leo.Atmosphere.enhancement (Leo.Atmosphere.of_storm (-383.0)) ~alt_km:400.0 in
  Alcotest.(check bool) (Printf.sprintf "%.1f in [3, 9]" e) true (e > 3.0 && e < 9.0)

let test_enhancement_grows_with_altitude () =
  (* Relative enhancement is stronger higher up (scale-height effect). *)
  let c = Leo.Atmosphere.of_storm (-600.0) in
  Alcotest.(check bool) "500 km > 250 km" true
    (Leo.Atmosphere.enhancement c ~alt_km:500.0 > Leo.Atmosphere.enhancement c ~alt_km:250.0)

let test_atmosphere_validation () =
  Alcotest.check_raises "positive dst" (Invalid_argument "Atmosphere.of_storm: Dst must be <= 0")
    (fun () -> ignore (Leo.Atmosphere.of_storm 10.0));
  Alcotest.check_raises "bad altitude"
    (Invalid_argument "Atmosphere.density_kg_m3: altitude <= 0") (fun () ->
      ignore (Leo.Atmosphere.density_kg_m3 Leo.Atmosphere.quiet ~alt_km:0.0))

(* --- Decay --- *)

let test_iss_like_decay () =
  (* ISS-class ballistic coefficient decays ~1-3 km/month at 420 km. *)
  let iss =
    { Leo.Decay.name = "iss"; mass_kg = 420000.0; drag_area_m2 = 700.0; cd = 2.2;
      thrust_n = 0.0 }
  in
  let after = Leo.Decay.altitude_after iss Leo.Atmosphere.quiet ~alt_km:420.0 ~days:30.0 in
  let loss = 420.0 -. after in
  Alcotest.(check bool) (Printf.sprintf "%.1f km/month in [0.5, 5]" loss) true
    (loss > 0.5 && loss < 5.0)

let test_starlink_lifetime_years_at_550 () =
  let days =
    Leo.Decay.lifetime_days Leo.Decay.starlink_v1 Leo.Atmosphere.quiet ~alt_km:550.0
  in
  Alcotest.(check bool) (Printf.sprintf "%.0f d in [2y, 15y]" days) true
    (days > 730.0 && days < 5475.0)

let test_low_parking_orbit_is_marginal () =
  (* At 210 km a Starlink's thrust margin is ~1 in quiet conditions (orbit
     raising barely works); the Feb 2022 storm pushed it clearly below 1 —
     the event's mechanism.  At 300 km there is ample margin. *)
  let margin c = Leo.Decay.thrust_margin Leo.Decay.starlink_v1 c ~alt_km:210.0 in
  let quiet = margin Leo.Atmosphere.quiet in
  let storm = margin (Leo.Atmosphere.of_storm (-66.0)) in
  Alcotest.(check bool) (Printf.sprintf "quiet margin %.2f ~ 1" quiet) true
    (quiet > 0.75 && quiet < 1.35);
  Alcotest.(check bool) "storm strictly worse" true (storm < quiet);
  Alcotest.(check bool) "storm below quiet by ~25%" true (storm < 0.85 *. quiet);
  Alcotest.(check bool) "300 km comfortable" true
    (Leo.Decay.can_hold_altitude Leo.Decay.starlink_v1 Leo.Atmosphere.quiet ~alt_km:300.0)

let test_no_thruster_never_holds () =
  Alcotest.(check bool) "cubesat" false
    (Leo.Decay.can_hold_altitude cubesat_3u Leo.Atmosphere.quiet ~alt_km:500.0)

let test_altitude_after_monotone_in_days () =
  let sc = starlink_v1_safe_mode in
  let c = Leo.Atmosphere.of_storm (-300.0) in
  let a1 = Leo.Decay.altitude_after sc c ~alt_km:300.0 ~days:1.0 in
  let a5 = Leo.Decay.altitude_after sc c ~alt_km:300.0 ~days:5.0 in
  Alcotest.(check bool) "longer coast, lower" true (a5 < a1);
  Alcotest.(check bool) "floors at reentry" true (a5 >= Leo.Orbit.reentry_alt_km)

let test_decay_validation () =
  Alcotest.check_raises "negative days"
    (Invalid_argument "Decay.altitude_after: negative duration") (fun () ->
      ignore
        (Leo.Decay.altitude_after Leo.Decay.starlink_v1 Leo.Atmosphere.quiet ~alt_km:400.0
           ~days:(-1.0)))

(* --- Constellation --- *)

let test_starlink_size () =
  (* Phase 1 is ~4,400 satellites. *)
  let n = Leo.Constellation.size Leo.Constellation.starlink_phase1 in
  Alcotest.(check bool) (Printf.sprintf "%d in [4000, 4600]" n) true (n >= 4000 && n <= 4600)

let test_coverage_cap_reasonable () =
  let shell = List.hd Leo.Constellation.starlink_phase1.Leo.Constellation.shells in
  let cap = Leo.Constellation.coverage_cap_deg shell ~elevation_mask_deg:25.0 in
  (* 550 km, 25 deg mask: ~9-10 deg central half-angle. *)
  Alcotest.(check bool) (Printf.sprintf "%.1f deg in [7, 12]" cap) true (cap > 7.0 && cap < 12.0)

let test_visible_satellites_latitude_profile () =
  let c = Leo.Constellation.starlink_phase1 in
  let vis lat = Leo.Constellation.visible_satellites c ~lat_deg:lat ~elevation_mask_deg:25.0 in
  (* Density peaks near the 53 deg inclination edge; mid-latitudes well
     served; poles only by the small SSO shells. *)
  Alcotest.(check bool) "45 deg served" true (vis 45.0 > 1.0);
  Alcotest.(check bool) "equator served" true (vis 0.0 > 0.5);
  Alcotest.(check bool) "52 deg > equator" true (vis 52.0 > vis 0.0);
  Alcotest.(check bool) "80 deg sparse" true (vis 80.0 < vis 45.0)

let test_coverage_fraction_bounds () =
  let users = [ (40.0, 1.0); (0.0, 1.0); (85.0, 1.0) ] in
  let f = Leo.Constellation.coverage_fraction Leo.Constellation.starlink_phase1 users in
  Alcotest.(check bool) "in [0, 1]" true (f >= 0.0 && f <= 1.0)

let test_empty_constellation () =
  let empty = { Leo.Constellation.name = "none"; shells = [] } in
  Alcotest.(check int) "size 0" 0 (Leo.Constellation.size empty);
  Alcotest.(check (float 1e-9)) "no coverage" 0.0
    (Leo.Constellation.coverage_fraction empty [ (40.0, 1.0) ])

(* --- Storm impact --- *)

let test_feb_2022_reproduction () =
  (* 38 of 49 (78%) of the Feb 2022 batch were lost; the operational fleet
     was untouched. *)
  let r = Leo.Storm_impact.feb_2022_starlink () in
  (match r.Leo.Storm_impact.injection_loss_fraction with
  | Some f ->
      Alcotest.(check bool) (Printf.sprintf "batch loss %.2f in [0.5, 1]" f) true
        (f >= 0.5 && f <= 1.0)
  | None -> Alcotest.fail "no injection batch");
  Alcotest.(check bool) "operational fleet fine" true
    (r.Leo.Storm_impact.fleet_lost_fraction < 0.01);
  Alcotest.(check bool) "coverage unchanged" true
    (r.Leo.Storm_impact.coverage_after >= r.Leo.Storm_impact.coverage_before -. 0.01)

let test_carrington_fleet_losses () =
  let r =
    Leo.Storm_impact.assess ~dst_nt:(-1200.0) Leo.Constellation.starlink_phase1
  in
  (* Electronics dose claims a few percent of the fleet; operational
     shells at 540-570 km do not deorbit. *)
  Alcotest.(check bool)
    (Printf.sprintf "lost %.3f in [0.01, 0.3]" r.Leo.Storm_impact.fleet_lost_fraction)
    true
    (r.Leo.Storm_impact.fleet_lost_fraction > 0.01
    && r.Leo.Storm_impact.fleet_lost_fraction < 0.3);
  List.iter
    (fun o ->
      Alcotest.(check bool) "shells hold station" true o.Leo.Storm_impact.can_station_keep)
    r.Leo.Storm_impact.shells

let test_storm_losses_monotone () =
  let lost dst =
    (Leo.Storm_impact.assess ~dst_nt:dst Leo.Constellation.starlink_phase1)
      .Leo.Storm_impact.fleet_lost_fraction
  in
  Alcotest.(check bool) "carrington worse than quebec" true (lost (-1200.0) > lost (-589.0))

(* A shell that holds its altitude loses satellites to particle dose
   alone. *)
let electronics_loss dst_nt =
  let r = Leo.Storm_impact.assess ~dst_nt Leo.Constellation.starlink_phase1 in
  let s = List.hd r.Leo.Storm_impact.shells in
  Alcotest.(check bool) "holds altitude" true s.Leo.Storm_impact.can_station_keep;
  s.Leo.Storm_impact.lost_fraction

let test_electronics_probability_anchors () =
  let p1989 = electronics_loss (-589.0) in
  let pcar = electronics_loss (-1200.0) in
  Alcotest.(check bool) "1989 small" true (p1989 > 0.0005 && p1989 < 0.01);
  Alcotest.(check bool) "carrington percent-level" true (pcar > 0.01 && pcar < 0.2);
  Alcotest.(check bool) "capped" true (electronics_loss (-5000.0) <= 0.5)

(* --- QCheck --- *)

let prop_density_positive =
  QCheck.Test.make ~name:"density positive over storm x altitude" ~count:200
    QCheck.(pair (float_range (-2000.0) 0.0) (float_range 150.0 1200.0))
    (fun (dst, alt) ->
      Leo.Atmosphere.density_kg_m3 (Leo.Atmosphere.of_storm dst) ~alt_km:alt > 0.0)

let prop_enhancement_at_least_one =
  QCheck.Test.make ~name:"storm enhancement >= 1" ~count:200
    QCheck.(pair (float_range (-2000.0) 0.0) (float_range 150.0 1200.0))
    (fun (dst, alt) ->
      Leo.Atmosphere.enhancement (Leo.Atmosphere.of_storm dst) ~alt_km:alt >= 1.0)

let prop_coast_never_gains_altitude =
  QCheck.Test.make ~name:"coasting never raises the orbit" ~count:50
    QCheck.(pair (float_range 180.0 800.0) (float_range 0.0 30.0))
    (fun (alt, days) ->
      Leo.Decay.altitude_after starlink_v1_safe_mode Leo.Atmosphere.quiet
        ~alt_km:alt ~days
      <= alt +. 1e-9)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_density_positive; prop_enhancement_at_least_one; prop_coast_never_gains_altitude ]

let () =
  Alcotest.run "leo"
    [
      ( "orbit",
        [ Alcotest.test_case "ISS period" `Quick test_iss_period;
          Alcotest.test_case "orbital speed" `Quick test_leo_speed;
          Alcotest.test_case "validation" `Quick test_orbit_validation;
          Alcotest.test_case "decay rate sign" `Quick test_decay_rate_negative ] );
      ( "atmosphere",
        [ Alcotest.test_case "quiet anchors" `Quick test_quiet_density_anchors;
          Alcotest.test_case "monotone altitude" `Quick test_density_decreases_with_altitude;
          Alcotest.test_case "feb 2022 anchor" `Quick test_feb2022_drag_anchor;
          Alcotest.test_case "halloween 2003 anchor" `Quick test_halloween_2003_anchor;
          Alcotest.test_case "enhancement vs altitude" `Quick
            test_enhancement_grows_with_altitude;
          Alcotest.test_case "validation" `Quick test_atmosphere_validation ] );
      ( "decay",
        [ Alcotest.test_case "ISS-like decay" `Quick test_iss_like_decay;
          Alcotest.test_case "starlink lifetime" `Quick test_starlink_lifetime_years_at_550;
          Alcotest.test_case "210 km marginality" `Quick test_low_parking_orbit_is_marginal;
          Alcotest.test_case "no thruster" `Quick test_no_thruster_never_holds;
          Alcotest.test_case "coast monotone" `Quick test_altitude_after_monotone_in_days;
          Alcotest.test_case "validation" `Quick test_decay_validation ] );
      ( "constellation",
        [ Alcotest.test_case "starlink size" `Quick test_starlink_size;
          Alcotest.test_case "coverage cap" `Quick test_coverage_cap_reasonable;
          Alcotest.test_case "latitude profile" `Quick test_visible_satellites_latitude_profile;
          Alcotest.test_case "coverage bounds" `Quick test_coverage_fraction_bounds;
          Alcotest.test_case "empty constellation" `Quick test_empty_constellation ] );
      ( "storm_impact",
        [ Alcotest.test_case "feb 2022 reproduction" `Quick test_feb_2022_reproduction;
          Alcotest.test_case "carrington losses" `Quick test_carrington_fleet_losses;
          Alcotest.test_case "monotone in storm" `Quick test_storm_losses_monotone;
          Alcotest.test_case "electronics anchors" `Quick test_electronics_probability_anchors ] );
      ("properties", qcheck_tests);
    ]
