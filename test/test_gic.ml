(* Tests for the GIC library: layered-earth impedance, disturbance model,
   geoelectric fields and induced currents in grounded conductors. *)

let check_close eps = Alcotest.(check (float eps))

let carrington = Gic.Disturbance.storm_of_dst (-1200.0)
let quebec = Gic.Disturbance.storm_of_dst (-589.0)
let intense = Gic.Disturbance.storm_of_dst (-100.0)

let high_lat = Geo.Coord.make ~lat:62.0 ~lon:25.0 (* Finland *)
let equator = Geo.Coord.make ~lat:0.0 ~lon:20.0

(* The four ground profiles, each where [profile_for] assigns it. *)
let shield = Gic.Conductivity.profile_for high_lat
let plains = Gic.Conductivity.profile_for (Geo.Coord.make ~lat:38.5 ~lon:(-98.0)) (* Kansas *)
let coastal = Gic.Conductivity.profile_for (Geo.Coord.make ~lat:6.52 ~lon:3.38) (* Lagos *)
let ocean = Gic.Conductivity.profile_for (Geo.Coord.make ~lat:0.0 ~lon:(-150.0))

(* --- Conductivity --- *)

let test_profile_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Conductivity.make_profile: no layers")
    (fun () -> ignore (Gic.Conductivity.make_profile ~name:"x" []));
  Alcotest.check_raises "bad resistivity"
    (Invalid_argument "Conductivity.make_profile: non-positive resistivity") (fun () ->
      ignore
        (Gic.Conductivity.make_profile ~name:"x"
           [ { Gic.Conductivity.thickness_km = 1.0; resistivity_ohm_m = -1.0 } ]))

let test_impedance_positive_and_period_dependent () =
  let z120 = Gic.Conductivity.impedance_magnitude shield ~period_s:120.0 in
  let z600 = Gic.Conductivity.impedance_magnitude shield ~period_s:600.0 in
  Alcotest.(check bool) "positive" true (z120 > 0.0);
  Alcotest.(check bool) "longer period, lower |Z|" true (z600 < z120)

let test_shield_more_resistive_than_coastal () =
  let z p = Gic.Conductivity.impedance_magnitude p ~period_s:120.0 in
  let zs = z shield and zc = z coastal in
  let zo = z ocean in
  Alcotest.(check bool) "shield |Z| larger" true (zs > zc);
  (* The paper's New Zealand example: seawater conducts far better than
     land, so the ocean profile's |Z| sits an order of magnitude lower. *)
  Alcotest.(check bool) (Printf.sprintf "ocean |Z| %.2e < coastal %.2e / 10" zo zc) true
    (zo *. 10.0 < zc)

let test_profile_for_assignment () =
  Alcotest.(check string) "ocean offshore" "ocean" ocean.Gic.Conductivity.name;
  Alcotest.(check string) "shield at high latitude" "shield" shield.Gic.Conductivity.name;
  Alcotest.(check string) "plains at mid latitude" "plains" plains.Gic.Conductivity.name;
  Alcotest.(check string) "coastal in the tropics" "coastal" coastal.Gic.Conductivity.name

(* An infinite period would be angular frequency 0, and NaN compares
   false with everything: both are rejected by name, as are 0 and
   negative periods. *)
let test_impedance_invalid () =
  List.iter
    (fun period_s ->
      Alcotest.check_raises (Printf.sprintf "period %g" period_s)
        (Invalid_argument "Conductivity.impedance_magnitude: period not finite and > 0")
        (fun () -> ignore (Gic.Conductivity.impedance_magnitude shield ~period_s)))
    [ Float.infinity; Float.nan; 0.0; -60.0; Float.neg_infinity ]

(* --- Disturbance --- *)

let test_storm_validation () =
  Alcotest.check_raises "positive Dst"
    (Invalid_argument "Disturbance.storm_of_dst: Dst must be <= 0") (fun () ->
      ignore (Gic.Disturbance.storm_of_dst 100.0))

let test_auroral_boundary_expands () =
  (* Stronger storms push the boundary equatorward: ~62 deg intense, ~40 deg
     1989-class, ~25 deg Carrington (SS 3.1 / Pulkkinen 2012). *)
  let b_intense = Gic.Disturbance.auroral_boundary_deg intense in
  let b_quebec = Gic.Disturbance.auroral_boundary_deg quebec in
  let b_car = Gic.Disturbance.auroral_boundary_deg carrington in
  Alcotest.(check bool) (Printf.sprintf "intense %.0f ~ 62" b_intense) true
    (b_intense > 57.0 && b_intense < 67.0);
  Alcotest.(check bool) (Printf.sprintf "1989 %.0f ~ 40" b_quebec) true
    (b_quebec > 33.0 && b_quebec < 45.0);
  Alcotest.(check bool) (Printf.sprintf "carrington %.0f ~ 25" b_car) true
    (b_car > 20.0 && b_car < 30.0)

let test_latitude_factor_bounds_and_floor () =
  List.iter
    (fun glat ->
      let f = Gic.Disturbance.latitude_factor carrington ~geomag_lat:glat in
      Alcotest.(check bool) "in [0.03, 1]" true (f >= 0.03 -. 1e-9 && f <= 1.0))
    [ -90.0; -40.0; 0.0; 20.0; 40.0; 70.0; 90.0 ]

let test_latitude_factor_order_of_magnitude_drop () =
  (* SS 3.1: during the 1989 storm the field dropped by an order of
     magnitude below 40 deg (measured here well below the boundary). *)
  let f_high = Gic.Disturbance.latitude_factor quebec ~geomag_lat:65.0 in
  let f_low = Gic.Disturbance.latitude_factor quebec ~geomag_lat:20.0 in
  Alcotest.(check bool) "10x drop" true (f_high /. f_low >= 8.0)

let test_equatorial_electrojet_bump () =
  let f_eq = Gic.Disturbance.latitude_factor carrington ~geomag_lat:1.0 in
  let f_off = Gic.Disturbance.latitude_factor carrington ~geomag_lat:10.0 in
  Alcotest.(check bool) "electrojet bump present" true (f_eq > f_off)

let test_db_at_scales_with_storm () =
  let db_car = Gic.Disturbance.db_at carrington high_lat in
  let db_int = Gic.Disturbance.db_at intense high_lat in
  Alcotest.(check bool) "stronger storm, larger dB" true (db_car > db_int);
  (* Auroral-zone deviation for Carrington-class: thousands of nT. *)
  Alcotest.(check bool) (Printf.sprintf "dB %.0f nT > 1500" db_car) true (db_car > 1500.0)

(* --- Efield --- *)

let test_efield_positive_and_latitude_ordered () =
  let e_high = Gic.Efield.amplitude_v_per_km carrington high_lat in
  let e_eq = Gic.Efield.amplitude_v_per_km carrington equator in
  Alcotest.(check bool) "positive" true (e_high > 0.0);
  Alcotest.(check bool) "higher latitude, stronger field" true (e_high > e_eq)

let test_efield_magnitude_sane () =
  (* Pulkkinen et al. 100-year benchmark: extreme storms drive fields of a
     few V/km at high geomagnetic latitudes on resistive ground. *)
  let e = Gic.Efield.amplitude_v_per_km carrington high_lat in
  Alcotest.(check bool) (Printf.sprintf "%.2f V/km in [0.5, 50]" e) true
    (e > 0.5 && e < 50.0)

let test_projection_factor () =
  check_close 1e-9 "2/pi" (2.0 /. Float.pi) Gic.Efield.projection_factor_mean

(* --- Induced --- *)

let transatlantic_path =
  Geo.Geodesic.waypoints
    (Geo.Coord.make ~lat:40.5 ~lon:(-74.0))
    (Geo.Coord.make ~lat:50.8 ~lon:(-4.5))
    ~n:40

let test_induced_compute_sections () =
  let r =
    Gic.Induced.compute ~storm:carrington ~path:transatlantic_path
      ~ground_chainages_km:[ 1400.0; 2800.0; 4200.0 ] ()
  in
  Alcotest.(check int) "4 sections" 4 (List.length r.Gic.Induced.sections)

let test_induced_carrington_exceeds_repeater_rating () =
  (* SS 3.2.1 quotes 100-130 A GIC for low-resistance grid paths; in a
     0.8 ohm/km power-feeding line the quasi-DC current is resistance
     limited, but a Carrington-class storm must still push it well past
     the 1 A operating point of the repeaters. *)
  let r =
    Gic.Induced.compute ~storm:carrington ~path:transatlantic_path
      ~ground_chainages_km:[ 1400.0; 2800.0; 4200.0 ] ()
  in
  let peak = r.Gic.Induced.peak_gic_a in
  Alcotest.(check bool) (Printf.sprintf "peak %.1f A > 2 x 1 A" peak) true (peak > 2.0)

let test_induced_storm_ordering () =
  let run storm =
    (Gic.Induced.compute ~storm ~path:transatlantic_path
       ~ground_chainages_km:[ 2800.0 ] ())
      .Gic.Induced.peak_gic_a
  in
  Alcotest.(check bool) "carrington > quebec > intense" true
    (run carrington > run quebec && run quebec > run intense)

let test_induced_endpoints_always_grounded () =
  let r =
    Gic.Induced.compute ~storm:quebec ~path:transatlantic_path ~ground_chainages_km:[] ()
  in
  Alcotest.(check int) "one full-length section" 1 (List.length r.Gic.Induced.sections)

let test_induced_validation () =
  Alcotest.check_raises "empty path" (Invalid_argument "Induced.compute: empty path")
    (fun () ->
      ignore (Gic.Induced.compute ~storm:quebec ~path:[] ~ground_chainages_km:[] ()))

(* --- Time series --- *)

let test_profile_shape () =
  let p = Gic.Time_series.default ~dst_min:(-589.0) in
  Alcotest.(check (float 1e-9)) "quiet before onset" 0.0 (Gic.Time_series.dst_at p ~t_h:0.5);
  let peak_h = p.Gic.Time_series.onset_h +. p.Gic.Time_series.main_phase_h in
  check_close 1e-6 "minimum at peak" (-589.0) (Gic.Time_series.dst_at p ~t_h:peak_h);
  let after = Gic.Time_series.dst_at p ~t_h:(peak_h +. 30.0) in
  Alcotest.(check bool) "recovering" true (after > -589.0 && after < 0.0);
  for t = 0 to 48 do
    Alcotest.(check bool) "dst <= 0" true (Gic.Time_series.dst_at p ~t_h:(float_of_int t) <= 0.0)
  done

let test_ts_validation () =
  Alcotest.check_raises "positive dst"
    (Invalid_argument "Time_series.default: dst_min must be <= 0") (fun () ->
      ignore (Gic.Time_series.default ~dst_min:100.0))

let test_duration_below () =
  let p = Gic.Time_series.default ~dst_min:(-1200.0) in
  let severe = Gic.Time_series.duration_below p ~dst_threshold:(-250.0) in
  let extreme = Gic.Time_series.duration_below p ~dst_threshold:(-850.0) in
  Alcotest.(check bool) "severe window hours-days" true (severe > 10.0 && severe < 200.0);
  Alcotest.(check bool) "deeper threshold, shorter window" true (extreme < severe);
  Alcotest.(check (float 1e-9)) "never reached" 0.0
    (Gic.Time_series.duration_below p ~dst_threshold:(-2000.0));
  (* The closed form against the profile itself, sampled every 0.01 h. *)
  List.iter
    (fun dst_threshold ->
      let below = ref 0 in
      for i = 0 to 40_000 do
        if Gic.Time_series.dst_at p ~t_h:(float_of_int i *. 0.01) <= dst_threshold then incr below
      done;
      check_close 0.02 (Printf.sprintf "%g nT window = sampled profile" dst_threshold)
        (float_of_int !below *. 0.01)
        (Gic.Time_series.duration_below p ~dst_threshold))
    [ -250.0; -850.0 ]

let test_deeper_storm_faster_main_phase () =
  let weak = Gic.Time_series.default ~dst_min:(-100.0) in
  let deep = Gic.Time_series.default ~dst_min:(-1200.0) in
  Alcotest.(check bool) "waldmeier-like" true
    (deep.Gic.Time_series.main_phase_h < weak.Gic.Time_series.main_phase_h);
  Alcotest.(check bool) "deep recovers slower" true
    (deep.Gic.Time_series.recovery_tau_h > weak.Gic.Time_series.recovery_tau_h)

(* --- QCheck --- *)

let prop_latitude_factor_monotone_with_storm =
  QCheck.Test.make ~name:"stronger storm never weakens the factor" ~count:100
    QCheck.(pair (float_range (-2000.0) (-100.0)) (float_range 0.0 80.0))
    (fun (dst, glat) ->
      let weak = Gic.Disturbance.storm_of_dst (dst /. 2.0) in
      let strong = Gic.Disturbance.storm_of_dst dst in
      Gic.Disturbance.latitude_factor strong ~geomag_lat:glat
      >= Gic.Disturbance.latitude_factor weak ~geomag_lat:glat -. 1e-9)

let prop_impedance_positive =
  QCheck.Test.make ~name:"impedance magnitude positive over periods" ~count:100
    (QCheck.float_range 10.0 10000.0)
    (fun period_s ->
      Gic.Conductivity.impedance_magnitude plains ~period_s > 0.0)

let prop_efield_nonnegative =
  QCheck.Test.make ~name:"E-field amplitude nonnegative everywhere" ~count:100
    QCheck.(pair (float_range (-85.0) 85.0) (float_range (-180.0) 180.0))
    (fun (lat, lon) ->
      Gic.Efield.amplitude_v_per_km carrington (Geo.Coord.make ~lat ~lon) >= 0.0)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_latitude_factor_monotone_with_storm; prop_impedance_positive;
      prop_efield_nonnegative ]

let () =
  Alcotest.run "gic"
    [
      ( "conductivity",
        [ Alcotest.test_case "validation" `Quick test_profile_validation;
          Alcotest.test_case "impedance period dependence" `Quick
            test_impedance_positive_and_period_dependent;
          Alcotest.test_case "shield vs coastal" `Quick test_shield_more_resistive_than_coastal;
          Alcotest.test_case "profile assignment" `Quick test_profile_for_assignment;
          Alcotest.test_case "impedance invalid" `Quick test_impedance_invalid ] );
      ( "disturbance",
        [ Alcotest.test_case "validation" `Quick test_storm_validation;
          Alcotest.test_case "auroral boundary" `Quick test_auroral_boundary_expands;
          Alcotest.test_case "factor bounds" `Quick test_latitude_factor_bounds_and_floor;
          Alcotest.test_case "order-of-magnitude drop" `Quick
            test_latitude_factor_order_of_magnitude_drop;
          Alcotest.test_case "electrojet bump" `Quick test_equatorial_electrojet_bump;
          Alcotest.test_case "dB scales with storm" `Quick test_db_at_scales_with_storm ] );
      ( "efield",
        [ Alcotest.test_case "latitude ordering" `Quick test_efield_positive_and_latitude_ordered;
          Alcotest.test_case "magnitude sane" `Quick test_efield_magnitude_sane;
          Alcotest.test_case "projection factor" `Quick test_projection_factor ] );
      ( "induced",
        [ Alcotest.test_case "sections" `Quick test_induced_compute_sections;
          Alcotest.test_case "carrington 100x rating" `Quick
            test_induced_carrington_exceeds_repeater_rating;
          Alcotest.test_case "storm ordering" `Quick test_induced_storm_ordering;
          Alcotest.test_case "endpoints grounded" `Quick test_induced_endpoints_always_grounded;
          Alcotest.test_case "validation" `Quick test_induced_validation ] );
      ( "time_series",
        [ Alcotest.test_case "profile shape" `Quick test_profile_shape;
          Alcotest.test_case "validation" `Quick test_ts_validation;
          Alcotest.test_case "duration below" `Quick test_duration_below;
          Alcotest.test_case "depth scaling" `Quick test_deeper_storm_faster_main_phase ] );
      ("properties", qcheck_tests);
    ]
