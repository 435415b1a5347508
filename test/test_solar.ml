(* Tests for the Spaceweather library: Dst classes, CME kinematics,
   solar-cycle model, Gleissberg modulation, occurrence probabilities and
   the early-warning timeline. *)

open Spaceweather

let check_close eps = Alcotest.(check (float eps))

(* --- Dst --- *)

let test_severity_classes () =
  let open Dst in
  Alcotest.(check string) "quiet" "quiet" (severity_to_string (severity_of_dst (-10.0)));
  Alcotest.(check string) "minor" "minor" (severity_to_string (severity_of_dst (-40.0)));
  Alcotest.(check string) "moderate" "moderate" (severity_to_string (severity_of_dst (-75.0)));
  Alcotest.(check string) "intense" "intense" (severity_to_string (severity_of_dst (-150.0)));
  Alcotest.(check string) "severe" "severe" (severity_to_string (severity_of_dst (-400.0)));
  Alcotest.(check string) "extreme" "extreme" (severity_to_string (severity_of_dst (-700.0)));
  Alcotest.(check string) "carrington" "carrington" (severity_to_string (severity_of_dst (-1000.0)))

let test_severity_boundaries () =
  let open Dst in
  (* Boundary values fall into the weaker class (strict >). *)
  Alcotest.(check string) "-30 quiet boundary" "minor" (severity_to_string (severity_of_dst (-30.0)));
  Alcotest.(check string) "-600 extreme boundary" "extreme" (severity_to_string (severity_of_dst (-600.0)));
  Alcotest.(check string) "-850 carrington boundary" "carrington" (severity_to_string (severity_of_dst (-850.0)))

let test_severity_invalid () =
  Alcotest.check_raises "positive Dst"
    (Invalid_argument "Dst.severity_of_dst: not a storm-time Dst") (fun () ->
      ignore (Dst.severity_of_dst 500.0))

let test_severity_order () =
  let open Dst in
  Alcotest.(check bool) "carrington strongest" true
    (compare_severity Carrington Extreme > 0);
  Alcotest.(check bool) "quiet weakest" true (compare_severity Quiet Minor < 0)

let test_representative_dst_consistent () =
  let open Dst in
  List.iter
    (fun s ->
      Alcotest.(check bool) "representative maps back" true
        (compare_severity (severity_of_dst (representative_dst s)) s = 0))
    [ Quiet; Minor; Moderate; Intense; Severe; Extreme; Carrington ]

(* --- CME --- *)

let test_cme_validation () =
  Alcotest.check_raises "speed 0" (Invalid_argument "Cme.make: speed outside (0, 5000] km/s")
    (fun () -> ignore (Cme.make ~speed_km_s:0.0 ()));
  Alcotest.check_raises "speed 6000" (Invalid_argument "Cme.make: speed outside (0, 5000] km/s")
    (fun () -> ignore (Cme.make ~speed_km_s:6000.0 ()))

let test_carrington_transit_anchor () =
  (* The Carrington CME reached Earth in 17.6 h. *)
  let t = Cme.transit_hours Cme.carrington_1859 in
  Alcotest.(check bool) (Printf.sprintf "%.1f h in [14, 21]" t) true (t > 14.0 && t < 21.0)

let test_slow_cme_transit_range () =
  (* Typical CMEs take 1-5 days (SS 2.1). *)
  let slow = Cme.make ~speed_km_s:470.0 () in
  let t = Cme.transit_hours slow in
  Alcotest.(check bool) (Printf.sprintf "%.0f h in [48, 120]" t) true (t > 48.0 && t < 120.0)

let test_transit_monotone_in_speed () =
  let t1 = Cme.transit_hours (Cme.make ~speed_km_s:800.0 ()) in
  let t2 = Cme.transit_hours (Cme.make ~speed_km_s:1600.0 ()) in
  Alcotest.(check bool) "faster arrives sooner" true (t2 < t1)

let test_arrival_speed_bounded () =
  let cme = Cme.make ~speed_km_s:2500.0 () in
  let v = Cme.arrival_speed_km_s cme in
  Alcotest.(check bool) "decelerates" true (v < 2500.0);
  Alcotest.(check bool) "stays above wind" true (v >= 450.0)

let test_expected_dst_negative_and_monotone () =
  let weak = Cme.expected_dst (Cme.make ~speed_km_s:500.0 ()) in
  let strong = Cme.expected_dst (Cme.make ~speed_km_s:2700.0 ()) in
  Alcotest.(check bool) "negative" true (weak < 0.0 && strong < 0.0);
  Alcotest.(check bool) "stronger CME, deeper Dst" true (strong < weak)

let test_carrington_dst_class () =
  let dst = Cme.expected_dst Cme.carrington_1859 in
  Alcotest.(check bool) (Printf.sprintf "Dst %.0f <= -850" dst) true (dst <= -850.0)

(* --- Sunspot --- *)

let test_cycle_lookup () =
  (match Sunspot.find_cycle 19 with
  | Some c -> Alcotest.(check bool) "cycle 19 strongest" true (c.Sunspot.peak_ssn > 280.0)
  | None -> Alcotest.fail "cycle 19 missing");
  Alcotest.(check bool) "cycle 99 absent" true (Sunspot.find_cycle 99 = None)

let test_shape_properties () =
  Alcotest.(check (float 1e-9)) "zero before minimum" 0.0
    (Sunspot.shape ~amplitude:150.0 ~months_since_min:(-5.0));
  let peak_val =
    List.fold_left
      (fun acc m -> Float.max acc (Sunspot.shape ~amplitude:150.0 ~months_since_min:m))
      0.0
      (List.init 140 (fun i -> float_of_int i))
  in
  check_close 2.0 "shape peaks near amplitude" 150.0 peak_val

(* The shape as it was computed before peaks were memoized: a copy of
   the 1200-point peak scan, re-run on every call. *)
let scanned_shape ~amplitude ~months_since_min =
  let b = Float.max 36.0 (Float.min 50.0 (50.0 -. (amplitude /. 25.0))) in
  let raw ~a t =
    if t <= 0.0 then 0.0
    else
      let x = t /. b in
      a *. (x ** 3.0) /. (exp (x *. x) -. 0.71)
  in
  let peak = ref 0.0 in
  for i = 1 to 1200 do
    let v = raw ~a:1.0 (float_of_int i /. 10.0) in
    if v > !peak then peak := v
  done;
  if !peak <= 0.0 then 0.0 else raw ~a:(amplitude /. !peak) months_since_min

let shape_months = [ -5.0; 0.0; 0.5; 13.7; 41.0; 52.3; 100.0; 179.9 ]

(* Bit-equal to the scan, not merely close: the figure pass prints these. *)
let shape_matches_scan amplitude =
  List.for_all
    (fun months_since_min ->
      Int64.equal
        (Int64.bits_of_float (Sunspot.shape ~amplitude ~months_since_min))
        (Int64.bits_of_float (scanned_shape ~amplitude ~months_since_min)))
    shape_months

let test_shape_matches_scan_for_record () =
  List.iter
    (fun (c : Sunspot.cycle) ->
      (* Twice: the first call fills the peak cache, the second reads it. *)
      for _ = 1 to 2 do
        Alcotest.(check bool)
          (Printf.sprintf "cycle %d (%.1f)" c.Sunspot.number c.Sunspot.peak_ssn)
          true (shape_matches_scan c.Sunspot.peak_ssn)
      done)
    (Sunspot.cycle_25_strong :: Sunspot.cycles)

let test_shape_matches_scan_two_domains () =
  (* Amplitudes no other test uses, so both domains race to fill. *)
  let amplitudes = List.init 12 (fun i -> 7.25 +. (float_of_int i *. 29.5)) in
  let all_match () = List.for_all shape_matches_scan amplitudes in
  let other = Domain.spawn all_match in
  let here = all_match () in
  Alcotest.(check bool) "this domain" true here;
  Alcotest.(check bool) "other domain" true (Domain.join other)

let test_ssn_at_known_epochs () =
  (* Cycle 19 max (~1958) far exceeds the 2008-2019 cycle-24 max. *)
  let c19 = Sunspot.ssn_at 1958.0 and c24 = Sunspot.ssn_at 2014.0 in
  Alcotest.(check bool) "cycle 19 stronger" true (c19 > c24);
  Alcotest.(check bool) "minimum 2019 quiet" true (Sunspot.ssn_at 2019.9 < 40.0)

let test_cycle25_forecasts_differ () =
  let weak = Sunspot.ssn_at ~cycle25:Sunspot.cycle_25_weak 2025.0 in
  let strong = Sunspot.ssn_at ~cycle25:Sunspot.cycle_25_strong 2025.0 in
  Alcotest.(check bool) "strong forecast higher" true (strong > weak +. 30.0)

let test_series_shape () =
  let s = Sunspot.series ~start:2000.0 ~stop:2010.0 ~step:0.5 () in
  Alcotest.(check int) "21 samples" 21 (List.length s);
  List.iter (fun (_, v) -> Alcotest.(check bool) "nonneg" true (v >= 0.0)) s

let test_series_invalid () =
  Alcotest.check_raises "bad step" (Invalid_argument "Sunspot.series: step <= 0") (fun () ->
      ignore (Sunspot.series ~start:2000.0 ~stop:2010.0 ~step:0.0 ()))

let test_cycle_peak_year_inside_cycle () =
  match Sunspot.find_cycle 23 with
  | None -> Alcotest.fail "cycle 23 missing"
  | Some c ->
      let peak = Sunspot.cycle_peak_year c in
      Alcotest.(check bool) "peak in 1999-2004" true (peak > 1999.0 && peak < 2004.0)

(* --- Gleissberg --- *)

let test_gleissberg_phase_range () =
  List.iter
    (fun y ->
      let p = Gleissberg.phase y in
      Alcotest.(check bool) "phase in [0,1)" true (p >= 0.0 && p < 1.0))
    [ 1850.0; 1910.0; 1960.0; 1998.0; 2021.0; 2100.0 ]

let test_gleissberg_modulation_bounds () =
  List.iter
    (fun y ->
      let m = Gleissberg.modulation y in
      Alcotest.(check bool) "in [0.5, 2]" true (m >= 0.5 -. 1e-9 && m <= 2.0 +. 1e-9))
    (List.init 30 (fun i -> 1900.0 +. (float_of_int i *. 10.0)))

let test_gleissberg_minimum_at_reference () =
  check_close 1e-6 "minimum = 0.5" 0.5 (Gleissberg.modulation Gleissberg.reference_minimum);
  let max_year = Gleissberg.reference_minimum +. (Gleissberg.period_years /. 2.0) in
  check_close 1e-6 "maximum = 2" 2.0 (Gleissberg.modulation max_year)

let test_gleissberg_factor_4_swing () =
  (* McCracken: extreme-event frequency varies by a factor of ~4. *)
  let min_m = Gleissberg.modulation 1910.0 in
  let max_m = Gleissberg.modulation (Gleissberg.next_maximum_after 1910.0) in
  check_close 0.01 "factor 4" 4.0 (max_m /. min_m)

let test_next_maximum_after () =
  let m = Gleissberg.next_maximum_after 2021.0 in
  Alcotest.(check bool) "in the future" true (m > 2021.0);
  Alcotest.(check bool) "within one period" true (m < 2021.0 +. Gleissberg.period_years)

(* --- Probability --- *)

let test_power_law_ccdf () =
  check_close 1e-9 "at xmin" 1.0 (Probability.power_law_ccdf ~alpha:3.2 ~xmin:100.0 50.0);
  let p1 = Probability.power_law_ccdf ~alpha:3.2 ~xmin:100.0 500.0 in
  let p2 = Probability.power_law_ccdf ~alpha:3.2 ~xmin:100.0 1000.0 in
  Alcotest.(check bool) "decreasing" true (p2 < p1);
  Alcotest.check_raises "alpha <= 1"
    (Invalid_argument "Probability.power_law_ccdf: alpha <= 1") (fun () ->
      ignore (Probability.power_law_ccdf ~alpha:1.0 ~xmin:100.0 500.0))

let test_riley_headline () =
  (* Riley 2012: ~12% per decade for a Carrington-scale event. *)
  Alcotest.(check bool)
    (Printf.sprintf "riley %.3f in [0.08, 0.16]" Probability.riley_decadal)
    true
    (Probability.riley_decadal > 0.08 && Probability.riley_decadal < 0.16)

let test_decadal_range_matches_paper () =
  let lo, hi = Probability.decadal_range in
  check_close 1e-9 "low = kirchen 1.6%" 0.016 lo;
  Alcotest.(check bool) "high ~ 12%" true (hi > 0.08 && hi < 0.16)

let test_bernoulli_note () =
  (* The paper: a once-in-100-years event has ~9% probability per decade. *)
  check_close 0.002 "1 - 0.99^10" 0.0956 Probability.bernoulli_decadal_of_centennial

let test_prob_in_years_edges () =
  check_close 1e-9 "zero rate" 0.0 (Probability.prob_in_years ~rate_per_year:0.0 ~years:10.0);
  Alcotest.(check bool) "saturates" true
    (Probability.prob_in_years ~rate_per_year:10.0 ~years:10.0 > 0.9999);
  Alcotest.check_raises "negative"
    (Invalid_argument "Probability.prob_in_years: negative argument") (fun () ->
      ignore (Probability.prob_in_years ~rate_per_year:(-1.0) ~years:1.0))

let test_direct_impact_frequency () =
  check_close 1e-9 "low" 2.6 (Probability.direct_impact_per_century ~low:true);
  check_close 1e-9 "high" 5.2 (Probability.direct_impact_per_century ~low:false)

let test_modulated_rate_positive () =
  List.iter
    (fun y ->
      Alcotest.(check bool) "positive" true
        (Probability.modulated_rate ~base_rate_per_year:0.03 ~year:y > 0.0))
    [ 1910.0; 1958.0; 2020.0; 2025.0 ]

let test_expected_events_monotone_in_span () =
  let e1 = Probability.expected_events ~base_rate_per_year:0.03 ~start:2021.0 ~stop:2031.0 in
  let e2 = Probability.expected_events ~base_rate_per_year:0.03 ~start:2021.0 ~stop:2051.0 in
  Alcotest.(check bool) "longer window, more events" true (e2 > e1);
  check_close 1e-9 "empty window" 0.0
    (Probability.expected_events ~base_rate_per_year:0.03 ~start:2021.0 ~stop:2021.0)

(* --- Forecast --- *)

let test_timeline_lead_time () =
  (* SS 5.2: at least 13 h of lead time, typically 1-3 days. *)
  let fast = Forecast.timeline Cme.carrington_1859 in
  Alcotest.(check bool) "fastest >= 13h" true
    (fast.Forecast.actionable_lead_h >= 13.0);
  let typical = Forecast.timeline (Cme.make ~speed_km_s:700.0 ()) in
  Alcotest.(check bool) "typical 1-3 days" true
    (typical.Forecast.actionable_lead_h > 24.0 && typical.Forecast.actionable_lead_h < 120.0)

let test_l1_confirmation_short () =
  let tl = Forecast.timeline Cme.carrington_1859 in
  Alcotest.(check bool) "L1 window under 1 h" true (tl.Forecast.l1_confirmation_h < 1.0)

(* --- Storm catalog --- *)

let test_catalog_chronological () =
  let years = List.map (fun e -> e.Storm_catalog.year) Storm_catalog.all in
  Alcotest.(check (list int)) "sorted" (List.sort Int.compare years) years

let test_catalog_find () =
  (match Storm_catalog.find "carrington" with
  | Some e -> Alcotest.(check int) "1859" 1859 e.Storm_catalog.year
  | None -> Alcotest.fail "carrington missing");
  (match Storm_catalog.find "Quebec" with
  | Some e -> Alcotest.(check int) "1989" 1989 e.Storm_catalog.year
  | None -> Alcotest.fail "quebec missing");
  Alcotest.(check bool) "unknown" true (Storm_catalog.find "zzz" = None)

let test_catalog_strongest () =
  Alcotest.(check string) "strongest is carrington" "carrington"
    (Dst.severity_to_string (Storm_catalog.severity Storm_catalog.strongest))

let test_catalog_2012_missed () =
  match Storm_catalog.find "2012" with
  | Some e -> Alcotest.(check bool) "missed earth" false e.Storm_catalog.hit_earth
  | None -> Alcotest.fail "2012 event missing"

(* --- QCheck --- *)

let prop_severity_total =
  QCheck.Test.make ~name:"severity defined on all storm Dst" ~count:300
    (QCheck.float_range (-3000.0) 50.0)
    (fun dst -> ignore (Dst.severity_of_dst dst); true)

let prop_transit_bounded =
  QCheck.Test.make ~name:"transit time in [12h, 10d] for observed speeds" ~count:50
    (QCheck.float_range 300.0 3000.0)
    (fun v ->
      let t = Cme.transit_hours (Cme.make ~speed_km_s:v ()) in
      t > 12.0 && t < 240.0)

let prop_ssn_nonnegative =
  QCheck.Test.make ~name:"SSN never negative" ~count:200 (QCheck.float_range 1850.0 2040.0)
    (fun y -> Sunspot.ssn_at y >= 0.0)

let prop_shape_matches_scan =
  QCheck.Test.make ~name:"sunspot shape bit-equal to the peak scan" ~count:100
    (QCheck.float_range 0.0 400.0) shape_matches_scan

let prop_ccdf_decreasing =
  QCheck.Test.make ~name:"power-law CCDF in [0,1]" ~count:200 (QCheck.float_range 1.0 10000.0)
    (fun x ->
      let p = Probability.power_law_ccdf ~alpha:3.2 ~xmin:100.0 x in
      p >= 0.0 && p <= 1.0)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_severity_total; prop_transit_bounded; prop_ssn_nonnegative; prop_ccdf_decreasing;
      prop_shape_matches_scan ]

let () =
  Alcotest.run "spaceweather"
    [
      ( "dst",
        [ Alcotest.test_case "classes" `Quick test_severity_classes;
          Alcotest.test_case "boundaries" `Quick test_severity_boundaries;
          Alcotest.test_case "invalid" `Quick test_severity_invalid;
          Alcotest.test_case "order" `Quick test_severity_order;
          Alcotest.test_case "representative" `Quick test_representative_dst_consistent ] );
      ( "cme",
        [ Alcotest.test_case "validation" `Quick test_cme_validation;
          Alcotest.test_case "carrington 17.6h anchor" `Quick test_carrington_transit_anchor;
          Alcotest.test_case "slow transit range" `Quick test_slow_cme_transit_range;
          Alcotest.test_case "transit monotone" `Quick test_transit_monotone_in_speed;
          Alcotest.test_case "arrival speed" `Quick test_arrival_speed_bounded;
          Alcotest.test_case "expected Dst" `Quick test_expected_dst_negative_and_monotone;
          Alcotest.test_case "carrington class" `Quick test_carrington_dst_class ] );
      ( "sunspot",
        [ Alcotest.test_case "cycle lookup" `Quick test_cycle_lookup;
          Alcotest.test_case "shape" `Quick test_shape_properties;
          Alcotest.test_case "known epochs" `Quick test_ssn_at_known_epochs;
          Alcotest.test_case "cycle 25 forecasts" `Quick test_cycle25_forecasts_differ;
          Alcotest.test_case "series" `Quick test_series_shape;
          Alcotest.test_case "series invalid" `Quick test_series_invalid;
          Alcotest.test_case "peak year" `Quick test_cycle_peak_year_inside_cycle;
          Alcotest.test_case "shape = scan, record" `Quick test_shape_matches_scan_for_record;
          Alcotest.test_case "shape = scan, two domains" `Quick
            test_shape_matches_scan_two_domains ] );
      ( "gleissberg",
        [ Alcotest.test_case "phase range" `Quick test_gleissberg_phase_range;
          Alcotest.test_case "modulation bounds" `Quick test_gleissberg_modulation_bounds;
          Alcotest.test_case "minimum reference" `Quick test_gleissberg_minimum_at_reference;
          Alcotest.test_case "factor 4 swing" `Quick test_gleissberg_factor_4_swing;
          Alcotest.test_case "next maximum" `Quick test_next_maximum_after ] );
      ( "probability",
        [ Alcotest.test_case "ccdf" `Quick test_power_law_ccdf;
          Alcotest.test_case "riley headline" `Quick test_riley_headline;
          Alcotest.test_case "decadal range" `Quick test_decadal_range_matches_paper;
          Alcotest.test_case "bernoulli note" `Quick test_bernoulli_note;
          Alcotest.test_case "prob_in_years" `Quick test_prob_in_years_edges;
          Alcotest.test_case "direct impact" `Quick test_direct_impact_frequency;
          Alcotest.test_case "modulated rate" `Quick test_modulated_rate_positive;
          Alcotest.test_case "expected events" `Quick test_expected_events_monotone_in_span ] );
      ( "forecast",
        [ Alcotest.test_case "lead time" `Quick test_timeline_lead_time;
          Alcotest.test_case "L1 window" `Quick test_l1_confirmation_short ] );
      ( "catalog",
        [ Alcotest.test_case "chronological" `Quick test_catalog_chronological;
          Alcotest.test_case "find" `Quick test_catalog_find;
          Alcotest.test_case "strongest" `Quick test_catalog_strongest;
          Alcotest.test_case "2012 near miss" `Quick test_catalog_2012_missed ] );
      ("properties", qcheck_tests);
    ]
