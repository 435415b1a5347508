(* Tests for Stormsim — the paper's failure models, Monte-Carlo engine,
   figure experiments, country case studies, systems analysis, scenarios
   and mitigation planning. *)

open Stormsim

let check_close eps = Alcotest.(check (float eps))

let submarine = lazy (Datasets.Submarine.build ())
let intertubes = lazy (Datasets.Intertubes.build ())
let itu_small = lazy (Datasets.Itu.build ~scale:0.1 ())

(* --- Stats --- *)

let test_stats_mean_stddev () =
  check_close 1e-9 "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_close 1e-9 "empty mean" 0.0 (Stats.mean []);
  check_close 1e-9 "constant stddev" 0.0 (snd (Stats.mean_stddev [ 5.0; 5.0; 5.0 ]));
  check_close 1e-6 "known stddev" (sqrt (2.0 /. 3.0)) (snd (Stats.mean_stddev [ 1.0; 2.0; 3.0 ]))

let test_stats_percentile () =
  let l = [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 ] in
  check_close 1e-9 "median" 5.0 (Stats.percentile l ~p:50.0);
  check_close 1e-9 "p100" 10.0 (Stats.percentile l ~p:100.0);
  check_close 1e-9 "p0 lowest" 1.0 (Stats.percentile l ~p:0.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list")
    (fun () -> ignore (Stats.percentile [] ~p:50.0))

let test_stats_cdf () =
  let points = Stats.cdf_points [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "steps"
    [ (1.0, 1.0 /. 3.0); (2.0, 2.0 /. 3.0); (3.0, 1.0) ]
    points

(* --- Failure model --- *)

let test_uniform_validation () =
  Alcotest.check_raises "p > 1" (Invalid_argument "Failure_model: probability outside [0, 1]")
    (fun () -> ignore (Failure_model.uniform 1.5))

let test_s1_s2_values () =
  let net = Lazy.force submarine in
  let p1 = Failure_model.compile Failure_model.s1 ~network:net in
  let p2 = Failure_model.compile Failure_model.s2 ~network:net in
  (* A low-tier cable (Singapore-Jakarta region). *)
  let find name =
    let rec scan i =
      if i >= Infra.Network.nb_cables net then Alcotest.fail (name ^ " not found")
      else
        let c = Infra.Network.cable net i in
        if c.Infra.Cable.name = name then c else scan (i + 1)
    in
    scan 0
  in
  let matrix = find "Matrix" in
  check_close 1e-9 "S1 low tier" 0.01 (p1 matrix);
  check_close 1e-9 "S2 low tier" 0.001 (p2 matrix);
  let tat14 = find "TAT-14" in
  check_close 1e-9 "S1 mid tier" 0.1 (p1 tat14);
  let alaska = find "Alaska United East" in
  check_close 1e-9 "S1 high tier (Anchorage 61N)" 1.0 (p1 alaska)

let test_cable_death_prob_formula () =
  let cable =
    Infra.Cable.make ~id:0 ~name:"t" ~kind:Infra.Cable.Submarine
      ~landings:[ (0, Geo.Coord.make ~lat:0.0 ~lon:0.0); (1, Geo.Coord.make ~lat:0.0 ~lon:10.0) ]
      ~length_km:1500.0 ()
  in
  (* 1500 km at 150 km -> 9 repeaters. *)
  check_close 1e-9 "formula" (1.0 -. (0.9 ** 9.0))
    (Failure_model.cable_death_prob ~per_repeater:0.1 ~spacing_km:150.0 cable);
  check_close 1e-9 "p=0 never dies" 0.0
    (Failure_model.cable_death_prob ~per_repeater:0.0 ~spacing_km:150.0 cable);
  check_close 1e-9 "p=1 always dies" 1.0
    (Failure_model.cable_death_prob ~per_repeater:1.0 ~spacing_km:150.0 cable)

let test_unrepeatered_cable_immortal () =
  let cable =
    Infra.Cable.make ~id:0 ~name:"short" ~kind:Infra.Cable.Submarine
      ~landings:[ (0, Geo.Coord.make ~lat:0.0 ~lon:0.0); (1, Geo.Coord.make ~lat:0.0 ~lon:1.0) ]
      ()
  in
  check_close 1e-9 "no repeaters, no death" 0.0
    (Failure_model.cable_death_prob ~per_repeater:1.0 ~spacing_km:150.0 cable)

let test_gic_physical_compiles () =
  let net = Lazy.force intertubes in
  let p = Failure_model.compile (Result.get_ok (Failure_model.of_string "physical")) ~network:net in
  for i = 0 to 20 do
    let v = p (Infra.Network.cable net i) in
    Alcotest.(check bool) "probability in [0,1]" true (v >= 0.0 && v <= 1.0)
  done

let test_model_to_string () =
  Alcotest.(check string) "uniform" "uniform(0.01)"
    (Failure_model.to_string (Failure_model.uniform 0.01));
  Alcotest.(check string) "s1" "tiered[1; 0.1; 0.01]" (Failure_model.to_string Failure_model.s1)

(* --- Monte Carlo --- *)

let test_mc_p0_no_failures () =
  let net = Lazy.force submarine in
  let s =
    Montecarlo.run ~trials:3 ~seed:1 ~network:net ~spacing_km:150.0
      ~model:(Failure_model.uniform 0.0) ()
  in
  check_close 1e-9 "no cables fail" 0.0 s.Montecarlo.cables_mean;
  check_close 1e-9 "no nodes unreachable" 0.0 s.Montecarlo.nodes_mean

let test_mc_p1_kills_all_repeatered () =
  let net = Lazy.force submarine in
  let s =
    Montecarlo.run ~trials:2 ~seed:1 ~network:net ~spacing_km:150.0
      ~model:(Failure_model.uniform 1.0) ()
  in
  let unrepeatered = Infra.Network.cables_without_repeaters net ~spacing_km:150.0 in
  let expected =
    100.0
    *. float_of_int (Infra.Network.nb_cables net - unrepeatered)
    /. float_of_int (Infra.Network.nb_cables net)
  in
  check_close 1e-6 "exactly the repeatered cables" expected s.Montecarlo.cables_mean;
  check_close 1e-9 "deterministic at p=1" 0.0 s.Montecarlo.cables_std

let test_mc_matches_expectation () =
  let net = Lazy.force submarine in
  let model = Failure_model.uniform 0.01 in
  let expected = Montecarlo.expected_cables_failed_pct ~network:net ~spacing_km:150.0 ~model in
  let s = Montecarlo.run ~trials:60 ~seed:3 ~network:net ~spacing_km:150.0 ~model () in
  Alcotest.(check bool)
    (Printf.sprintf "MC %.1f vs analytic %.1f" s.Montecarlo.cables_mean expected)
    true
    (Float.abs (s.Montecarlo.cables_mean -. expected) < 2.0)

let test_mc_deterministic_in_seed () =
  let net = Lazy.force intertubes in
  let run () =
    Montecarlo.run ~trials:5 ~seed:9 ~network:net ~spacing_km:100.0
      ~model:(Failure_model.uniform 0.05) ()
  in
  let a = run () and b = run () in
  check_close 1e-12 "same mean" a.Montecarlo.cables_mean b.Montecarlo.cables_mean;
  check_close 1e-12 "same std" a.Montecarlo.cables_std b.Montecarlo.cables_std

let test_mc_smaller_spacing_worse () =
  (* More repeaters per cable -> more failures. *)
  let net = Lazy.force submarine in
  let model = Failure_model.uniform 0.01 in
  let at spacing =
    (Montecarlo.run ~trials:10 ~seed:5 ~network:net ~spacing_km:spacing ~model ())
      .Montecarlo.cables_mean
  in
  Alcotest.(check bool) "50 km worse than 150 km" true (at 50.0 > at 150.0)

let test_mc_validation () =
  let net = Lazy.force intertubes in
  Alcotest.check_raises "trials" (Invalid_argument "Montecarlo.run: trials <= 0") (fun () ->
      ignore
        (Montecarlo.run ~trials:0 ~seed:1 ~network:net ~spacing_km:150.0
           ~model:(Failure_model.uniform 0.1) ()))

let test_nodes_unreachable_definition () =
  (* Hand-built network: node 1's only cable dies -> unreachable; node 0
     keeps a live cable. *)
  let coord lat lon = Geo.Coord.make ~lat ~lon in
  let nodes =
    [ { Infra.Network.id = 0; name = "a"; country = "X"; pos = coord 0.0 0.0 };
      { Infra.Network.id = 1; name = "b"; country = "X"; pos = coord 0.0 10.0 };
      { Infra.Network.id = 2; name = "c"; country = "X"; pos = coord 0.0 20.0 } ]
  in
  let cable id a b =
    Infra.Cable.make ~id ~name:(string_of_int id) ~kind:Infra.Cable.Submarine
      ~landings:
        [ (a, (List.nth nodes a).Infra.Network.pos); (b, (List.nth nodes b).Infra.Network.pos) ]
      ()
  in
  let net = Infra.Network.create ~name:"t" ~nodes ~cables:[ cable 0 0 1; cable 1 0 2 ] in
  let pct =
    Montecarlo.nodes_unreachable_pct net (Deadset.of_bool_array [| true; false |])
  in
  (* Node 1 unreachable; nodes 0 and 2 still served: 1/3. *)
  check_close 1e-6 "one of three" (100.0 /. 3.0) pct

(* --- Distribution (Figs 3-5) --- *)

let test_fig3_series () =
  let series = Distribution.fig3 ~submarine:(Lazy.force submarine) in
  Alcotest.(check int) "two series" 2 (List.length series);
  List.iter
    (fun (s : Distribution.pdf_series) ->
      Alcotest.(check int) "90 bins" 90 (List.length s.Distribution.points);
      let total =
        List.fold_left (fun acc (_, d) -> acc +. (d *. 2.0)) 0.0 s.Distribution.points
      in
      check_close 0.5 "integrates to 100%" 100.0 total)
    series

let test_fig4a_ordering_at_40 () =
  (* Paper: submarine 31% < intertubes 40%; population lowest (16%). *)
  let series =
    Distribution.fig4a ~submarine:(Lazy.force submarine) ~intertubes:(Lazy.force intertubes)
  in
  let at40 label =
    let s = List.find (fun (s : Distribution.threshold_series) -> s.Distribution.label = label) series in
    List.assoc 40.0 s.Distribution.points
  in
  Alcotest.(check bool) "submarine < intertubes" true
    (at40 "Submarine endpoints" < at40 "Intertubes endpoints");
  Alcotest.(check bool) "population lowest" true
    (at40 "Population" < at40 "Submarine endpoints");
  Alcotest.(check bool) "one-hop > submarine" true
    (at40 "One-hop endpoints" > at40 "Submarine endpoints")

let test_fig4b_infrastructure_exceeds_population () =
  let routers = Datasets.Caida.router_latitudes (Datasets.Caida.build ~ases:2000 ()) in
  let series =
    Distribution.fig4b ~routers ~ixps:(Datasets.Ixp.build ()) ~dns:(Datasets.Dns_roots.build ())
  in
  let at40 label =
    let s = List.find (fun (s : Distribution.threshold_series) -> s.Distribution.label = label) series in
    List.assoc 40.0 s.Distribution.points
  in
  List.iter
    (fun label ->
      Alcotest.(check bool) (label ^ " > population") true (at40 label > at40 "Population"))
    [ "Internet routers"; "IXPs"; "DNS root servers" ]

let test_fig5_orderings () =
  let series =
    Distribution.fig5 ~submarine:(Lazy.force submarine) ~intertubes:(Lazy.force intertubes)
      ~itu:(Lazy.force itu_small)
  in
  let median label =
    let s = List.find (fun (s : Distribution.cdf_series) -> s.Distribution.label = label) series in
    Stats.median (List.map fst s.Distribution.points)
  in
  (* Paper Fig. 5: submarine lengths an order of magnitude above land. *)
  Alcotest.(check bool) "submarine >> intertubes" true
    (median "Submarine (global)" > 2.0 *. median "Intertubes (US, land)");
  Alcotest.(check bool) "itu shortest" true
    (median "ITU (global, land)" < median "Intertubes (US, land)")

(* --- Resilience (Figs 6-8) --- *)

let networks_small () =
  [ ("Submarine", Lazy.force submarine); ("Intertubes", Lazy.force intertubes) ]

let test_fig6_7_structure () =
  let points =
    Resilience.fig6_7 ~trials:3 ~networks:(networks_small ()) ()
  in
  (* 3 spacings x 2 networks x 7 probabilities. *)
  Alcotest.(check int) "point count" 42 (List.length points)

let test_fig6_submarine_exceeds_land () =
  (* The headline: submarine failures an order of magnitude above land at
     p = 0.01 (paper: 14.9% vs 1.7%). *)
  let points =
    Resilience.fig6_7 ~trials:10 ~networks:(networks_small ()) ()
  in
  match
    ( Resilience.find_sweep points ~network:"Submarine" ~spacing_km:150.0 ~probability:0.01,
      Resilience.find_sweep points ~network:"Intertubes" ~spacing_km:150.0 ~probability:0.01 )
  with
  | Some sub, Some landp ->
      Alcotest.(check bool)
        (Printf.sprintf "submarine %.1f%% in [9, 20]" sub.Resilience.series.Montecarlo.cables_mean)
        true
        (sub.Resilience.series.Montecarlo.cables_mean > 9.0
        && sub.Resilience.series.Montecarlo.cables_mean < 20.0);
      Alcotest.(check bool)
        (Printf.sprintf "land %.1f%% < 4" landp.Resilience.series.Montecarlo.cables_mean)
        true
        (landp.Resilience.series.Montecarlo.cables_mean < 4.0);
      Alcotest.(check bool) "order of magnitude" true
        (sub.Resilience.series.Montecarlo.cables_mean
        > 4.0 *. landp.Resilience.series.Montecarlo.cables_mean)
  | _ -> Alcotest.fail "sweep points missing"

let test_fig6_monotone_in_probability () =
  let points =
    Resilience.fig6_7 ~trials:5 ~networks:[ ("Submarine", Lazy.force submarine) ] ()
  in
  let at p =
    match Resilience.find_sweep points ~network:"Submarine" ~spacing_km:150.0 ~probability:p with
    | Some pt -> pt.Resilience.series.Montecarlo.cables_mean
    | None -> Alcotest.fail "missing point"
  in
  Alcotest.(check bool) "monotone" true (at 0.001 <= at 0.01 && at 0.01 <= at 0.1 && at 0.1 <= at 1.0)

let test_fig8_s1_exceeds_s2 () =
  let points = Resilience.fig8 ~trials:5 ~networks:(networks_small ()) () in
  match
    ( Resilience.find_tiered points ~network:"Submarine" ~spacing_km:150.0 ~state:"S1",
      Resilience.find_tiered points ~network:"Submarine" ~spacing_km:150.0 ~state:"S2" )
  with
  | Some s1, Some s2 ->
      Alcotest.(check bool) "S1 worse" true
        (s1.Resilience.series.Montecarlo.cables_mean
        > s2.Resilience.series.Montecarlo.cables_mean);
      (* Paper: ~43% (S1) and ~10% (S2) of submarine cables at 150 km. *)
      Alcotest.(check bool)
        (Printf.sprintf "S1 %.1f%% in [18, 50]" s1.Resilience.series.Montecarlo.cables_mean)
        true
        (s1.Resilience.series.Montecarlo.cables_mean > 18.0
        && s1.Resilience.series.Montecarlo.cables_mean < 50.0);
      Alcotest.(check bool)
        (Printf.sprintf "S2 %.1f%% in [4, 16]" s2.Resilience.series.Montecarlo.cables_mean)
        true
        (s2.Resilience.series.Montecarlo.cables_mean > 4.0
        && s2.Resilience.series.Montecarlo.cables_mean < 16.0)
  | _ -> Alcotest.fail "tiered points missing"

let test_fig8_submarine_order_of_magnitude_over_land () =
  let points = Resilience.fig8 ~trials:5 ~networks:(networks_small ()) () in
  match
    ( Resilience.find_tiered points ~network:"Submarine" ~spacing_km:150.0 ~state:"S2",
      Resilience.find_tiered points ~network:"Intertubes" ~spacing_km:150.0 ~state:"S2" )
  with
  | Some sub, Some landp ->
      Alcotest.(check bool) "submarine >> land under S2" true
        (sub.Resilience.series.Montecarlo.cables_mean
        > 3.0 *. Float.max 0.1 landp.Resilience.series.Montecarlo.cables_mean)
  | _ -> Alcotest.fail "points missing"

(* --- Country case studies --- *)

let country_findings =
  lazy (Country.run_all ~trials:40 (Lazy.force submarine))

let finding id =
  List.find
    (fun (f : Country.finding) -> f.Country.spec.Country.id = id)
    (Lazy.force country_findings)

let test_country_all_cases_present () =
  Alcotest.(check int) "case count"
    (List.length Country.paper_case_studies)
    (List.length (Lazy.force country_findings))

let test_country_resolve_groups () =
  let net = Lazy.force submarine in
  List.iter
    (fun (spec : Country.spec) ->
      Alcotest.(check bool) (spec.Country.id ^ " group_a nonempty") true
        (Country.resolve_group net spec.Country.group_a <> []))
    Country.paper_case_studies

let test_country_ne_europe_s1_lost () =
  (* Paper: NE US-Europe fails with probability ~1 under S1. *)
  let f = finding "ne-europe-s1" in
  Alcotest.(check bool)
    (Printf.sprintf "loss %.2f >= 0.9" f.Country.loss_probability)
    true (f.Country.loss_probability >= 0.9)

let test_country_safe_cases () =
  (* Cases the paper reports as retained connectivity. *)
  List.iter
    (fun id ->
      let f = finding id in
      Alcotest.(check bool)
        (Printf.sprintf "%s loss %.2f <= 0.25" id f.Country.loss_probability)
        true
        (f.Country.loss_probability <= 0.25))
    [ "california-pacific-s2"; "florida-south-s2"; "india-hubs-s1"; "singapore-hub-s1";
      "uk-europe-s1"; "southafrica-coasts-s1"; "nz-australia-s1"; "australia-jakarta-s1";
      "alaska-bc-s1" ]

let test_country_lost_cases () =
  List.iter
    (fun id ->
      let f = finding id in
      Alcotest.(check bool)
        (Printf.sprintf "%s loss %.2f >= 0.75" id f.Country.loss_probability)
        true
        (f.Country.loss_probability >= 0.75))
    [ "uk-northamerica-s1" ]

let test_country_brazil_beats_us () =
  (* The Ellalink asymmetry: Brazil keeps Europe more often than the US
     keeps Europe under S1. *)
  let brazil = finding "brazil-europe-s1" in
  let us = finding "us-europe-s1" in
  Alcotest.(check bool)
    (Printf.sprintf "brazil %.2f < us %.2f" brazil.Country.loss_probability
       us.Country.loss_probability)
    true
    (brazil.Country.loss_probability < us.Country.loss_probability)

let test_country_s1_worse_than_s2_for_ne_europe () =
  let s1 = finding "ne-europe-s1" and s2 = finding "ne-europe-s2" in
  Alcotest.(check bool) "S1 >= S2" true
    (s1.Country.loss_probability >= s2.Country.loss_probability)

let test_country_direct_cables_counted () =
  let f = finding "us-europe-s1" in
  Alcotest.(check bool) "transatlantic cables present" true (f.Country.direct_cables >= 10)

(* --- Systems --- *)

let test_systems_as_summary () =
  let ases = Datasets.Caida.build ~ases:3000 () in
  let s = Systems.analyze_ases ases in
  Alcotest.(check int) "total" 3000 s.Systems.total;
  Alcotest.(check int) "curve points" 10 (List.length s.Systems.reach_curve);
  Alcotest.(check bool) "median < p90" true (s.Systems.median_spread_deg < s.Systems.p90_spread_deg)

let test_systems_google_more_resilient () =
  (* The paper's 4.4.2 conclusion. *)
  match Systems.analyze_datacenters () with
  | [ google; facebook ] ->
      Alcotest.(check bool) "google score higher" true
        (google.Systems.resilience_score > facebook.Systems.resilience_score);
      Alcotest.(check bool) "google more continents" true
        (google.Systems.continents > facebook.Systems.continents)
  | _ -> Alcotest.fail "expected two operators"

let test_systems_dns_resilient () =
  let dns = Systems.analyze_dns (Datasets.Dns_roots.build ()) in
  Alcotest.(check int) "13 letters" 13 dns.Systems.letters;
  Alcotest.(check bool) "score above facebook" true
    (match Systems.analyze_datacenters () with
    | [ _; facebook ] -> dns.Systems.resilience_score > facebook.Systems.resilience_score
    | _ -> false)

let test_resilience_score_properties () =
  (* Concentrated above 40 deg -> near zero; spread across bands -> higher. *)
  let concentrated = List.init 20 (fun _ -> (55.0, 1.0)) in
  let spread = [ (-35.0, 1.0); (-5.0, 1.0); (10.0, 1.0); (25.0, 1.0); (35.0, 1.0) ] in
  Alcotest.(check bool) "concentrated ~ 0" true (Systems.resilience_score concentrated < 0.1);
  Alcotest.(check bool) "spread high" true (Systems.resilience_score spread > 0.5);
  check_close 1e-9 "empty" 0.0 (Systems.resilience_score [])

(* --- Scenario --- *)

(* The probabilistic model [Scenario.run] picks for a CME's storm class. *)
let test_scenario_model_mapping () =
  let run cme =
    let s = Scenario.run ~trials:1 ~cme ~networks:[ ("Intertubes", Lazy.force intertubes) ] () in
    match s.Scenario.impacts with
    | [ i ] ->
        ( Spaceweather.Dst.severity_to_string s.Scenario.severity,
          Failure_model.to_string i.Scenario.model )
    | _ -> Alcotest.fail "expected one impact"
  in
  Alcotest.(check (pair string string)) "carrington -> S1" ("carrington", "tiered[1; 0.1; 0.01]")
    (run Spaceweather.Cme.carrington_1859);
  Alcotest.(check (pair string string)) "extreme -> S2" ("extreme", "tiered[0.1; 0.01; 0.001]")
    (run (Spaceweather.Cme.make ~speed_km_s:1800.0 ()))

let test_scenario_run_carrington () =
  let nets = [ ("Intertubes", Lazy.force intertubes) ] in
  let s = Scenario.run ~trials:3 ~cme:Spaceweather.Cme.carrington_1859 ~networks:nets () in
  Alcotest.(check string) "severity" "carrington"
    (Spaceweather.Dst.severity_to_string s.Scenario.severity);
  Alcotest.(check int) "one impact" 1 (List.length s.Scenario.impacts);
  Alcotest.(check bool) "lead time >= 13h" true
    (s.Scenario.timeline.Spaceweather.Forecast.actionable_lead_h >= 13.0)

let test_scenario_weak_cme_harmless () =
  let nets = [ ("Intertubes", Lazy.force intertubes) ] in
  let weak = Spaceweather.Cme.make ~speed_km_s:500.0 ~southward_b_nt:5.0 () in
  let s = Scenario.run ~trials:3 ~cme:weak ~networks:nets () in
  List.iter
    (fun i ->
      Alcotest.(check bool) "negligible failures" true (i.Scenario.cables_failed_pct < 1.0))
    s.Scenario.impacts

let test_scenario_physical_appended () =
  let nets = [ ("Intertubes", Lazy.force intertubes) ] in
  let s =
    Scenario.run ~trials:2 ~use_physical:true ~cme:Spaceweather.Cme.carrington_1859
      ~networks:nets ()
  in
  Alcotest.(check int) "two impacts" 2 (List.length s.Scenario.impacts)

(* --- Mitigation --- *)

let test_shutdown_plan_benefit () =
  let plan =
    Mitigation.shutdown_plan ~cme:Spaceweather.Cme.carrington_1859
      ~network:(Lazy.force submarine) ()
  in
  Alcotest.(check bool) "benefit nonnegative" true (plan.Mitigation.benefit_pct >= 0.0);
  Alcotest.(check bool) "off <= on" true
    (plan.Mitigation.cables_failed_off_pct <= plan.Mitigation.cables_failed_on_pct);
  Alcotest.(check bool) "limited protection (paper 5.2)" true
    (plan.Mitigation.cables_failed_off_pct > 0.0)

let test_augmentation_plan () =
  let augs = Mitigation.plan_augmentation ~budget:2 ~network:(Lazy.force submarine) () in
  Alcotest.(check bool) "at most budget" true (List.length augs <= 2);
  List.iter
    (fun (a : Mitigation.augmentation) ->
      Alcotest.(check bool) "positive gain" true (a.Mitigation.gain > 0.0);
      Alcotest.(check bool) "positive length" true (a.Mitigation.length_km > 0.0))
    augs

let test_augmentation_improves_objective () =
  let net = Lazy.force submarine in
  let base = Mitigation.expected_surviving_pairs ~network:net () in
  let augs = Mitigation.plan_augmentation ~budget:3 ~network:net () in
  let total_gain = List.fold_left (fun acc a -> acc +. a.Mitigation.gain) 0.0 augs in
  Alcotest.(check bool) "strictly better" true (total_gain > 0.0);
  Alcotest.(check bool) "baseline positive" true (base > 0.0)

let test_partitions_under_s1 () =
  let net = Lazy.force submarine in
  let parts = Mitigation.predicted_partitions ~network:net () in
  Alcotest.(check bool) "fragmentation" true (List.length parts > 1);
  (* Partition sizes are sorted descending and cover all nodes. *)
  let total = List.fold_left (fun acc c -> acc + List.length c) 0 parts in
  Alcotest.(check int) "covers all nodes" (Infra.Network.nb_nodes net) total;
  let sizes = List.map List.length parts in
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> Int.compare b a) sizes) sizes

let test_partitions_cutoff_monotone () =
  let net = Lazy.force submarine in
  let lenient = Mitigation.predicted_partitions ~survival_cutoff:0.01 ~network:net () in
  let strict = Mitigation.predicted_partitions ~survival_cutoff:0.99 ~network:net () in
  (* A stricter survival requirement removes more cables -> more pieces. *)
  Alcotest.(check bool) "more fragments when strict" true
    (List.length strict >= List.length lenient)

(* --- QCheck --- *)

let prop_death_prob_in_unit_interval =
  QCheck.Test.make ~name:"cable death probability in [0,1]" ~count:200
    QCheck.(pair (float_range 0.0 1.0) (float_range 1.0 30000.0))
    (fun (p, length_km) ->
      let cable =
        Infra.Cable.make ~id:0 ~name:"q" ~kind:Infra.Cable.Submarine
          ~landings:
            [ (0, Geo.Coord.make ~lat:0.0 ~lon:0.0); (1, Geo.Coord.make ~lat:1.0 ~lon:1.0) ]
          ~length_km ()
      in
      let d = Failure_model.cable_death_prob ~per_repeater:p ~spacing_km:150.0 cable in
      d >= 0.0 && d <= 1.0)

let prop_death_prob_monotone_in_p =
  QCheck.Test.make ~name:"death probability monotone in repeater p" ~count:200
    QCheck.(pair (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      let cable =
        Infra.Cable.make ~id:0 ~name:"q" ~kind:Infra.Cable.Submarine
          ~landings:
            [ (0, Geo.Coord.make ~lat:0.0 ~lon:0.0); (1, Geo.Coord.make ~lat:0.0 ~lon:40.0) ]
          ~length_km:5000.0 ()
      in
      Failure_model.cable_death_prob ~per_repeater:lo ~spacing_km:150.0 cable
      <= Failure_model.cable_death_prob ~per_repeater:hi ~spacing_km:150.0 cable +. 1e-12)

let prop_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentile lies within sample range" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_range (-100.0) 100.0))
              (float_range 0.0 100.0))
    (fun (l, p) ->
      let v = Stats.percentile l ~p in
      let sorted = List.sort Float.compare l in
      v >= List.hd sorted && v <= List.nth sorted (List.length sorted - 1))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_death_prob_in_unit_interval; prop_death_prob_monotone_in_p;
      prop_stats_percentile_bounds ]

let () =
  Alcotest.run "stormsim"
    [
      ( "stats",
        [ Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "cdf" `Quick test_stats_cdf ] );
      ( "failure_model",
        [ Alcotest.test_case "uniform validation" `Quick test_uniform_validation;
          Alcotest.test_case "S1/S2 tier values" `Quick test_s1_s2_values;
          Alcotest.test_case "death formula" `Quick test_cable_death_prob_formula;
          Alcotest.test_case "unrepeatered immortal" `Quick test_unrepeatered_cable_immortal;
          Alcotest.test_case "gic-physical compiles" `Quick test_gic_physical_compiles;
          Alcotest.test_case "to_string" `Quick test_model_to_string ] );
      ( "montecarlo",
        [ Alcotest.test_case "p=0" `Quick test_mc_p0_no_failures;
          Alcotest.test_case "p=1" `Quick test_mc_p1_kills_all_repeatered;
          Alcotest.test_case "matches expectation" `Slow test_mc_matches_expectation;
          Alcotest.test_case "deterministic" `Quick test_mc_deterministic_in_seed;
          Alcotest.test_case "spacing effect" `Quick test_mc_smaller_spacing_worse;
          Alcotest.test_case "validation" `Quick test_mc_validation;
          Alcotest.test_case "unreachable definition" `Quick test_nodes_unreachable_definition ] );
      ( "distribution",
        [ Alcotest.test_case "fig3 series" `Quick test_fig3_series;
          Alcotest.test_case "fig4a ordering" `Quick test_fig4a_ordering_at_40;
          Alcotest.test_case "fig4b infra > population" `Quick
            test_fig4b_infrastructure_exceeds_population;
          Alcotest.test_case "fig5 orderings" `Quick test_fig5_orderings ] );
      ( "resilience",
        [ Alcotest.test_case "fig6/7 structure" `Quick test_fig6_7_structure;
          Alcotest.test_case "submarine over land" `Quick test_fig6_submarine_exceeds_land;
          Alcotest.test_case "monotone in p" `Quick test_fig6_monotone_in_probability;
          Alcotest.test_case "fig8 S1 > S2" `Quick test_fig8_s1_exceeds_s2;
          Alcotest.test_case "fig8 submarine over land" `Quick
            test_fig8_submarine_order_of_magnitude_over_land ] );
      ( "country",
        [ Alcotest.test_case "all cases" `Quick test_country_all_cases_present;
          Alcotest.test_case "groups resolve" `Quick test_country_resolve_groups;
          Alcotest.test_case "NE-Europe lost under S1" `Quick test_country_ne_europe_s1_lost;
          Alcotest.test_case "safe cases" `Quick test_country_safe_cases;
          Alcotest.test_case "lost cases" `Quick test_country_lost_cases;
          Alcotest.test_case "brazil beats us" `Quick test_country_brazil_beats_us;
          Alcotest.test_case "S1 worse than S2" `Quick test_country_s1_worse_than_s2_for_ne_europe;
          Alcotest.test_case "direct cables counted" `Quick test_country_direct_cables_counted ] );
      ( "systems",
        [ Alcotest.test_case "AS summary" `Quick test_systems_as_summary;
          Alcotest.test_case "google > facebook" `Quick test_systems_google_more_resilient;
          Alcotest.test_case "dns resilient" `Quick test_systems_dns_resilient;
          Alcotest.test_case "score properties" `Quick test_resilience_score_properties ] );
      ( "scenario",
        [ Alcotest.test_case "model mapping" `Quick test_scenario_model_mapping;
          Alcotest.test_case "carrington run" `Quick test_scenario_run_carrington;
          Alcotest.test_case "weak cme harmless" `Quick test_scenario_weak_cme_harmless;
          Alcotest.test_case "physical appended" `Quick test_scenario_physical_appended ] );
      ( "mitigation",
        [ Alcotest.test_case "shutdown benefit" `Quick test_shutdown_plan_benefit;
          Alcotest.test_case "augmentation plan" `Quick test_augmentation_plan;
          Alcotest.test_case "augmentation objective" `Quick test_augmentation_improves_objective;
          Alcotest.test_case "partitions" `Quick test_partitions_under_s1;
          Alcotest.test_case "cutoff monotone" `Quick test_partitions_cutoff_monotone ] );
      ("properties", qcheck_tests);
    ]
