(* Robustness tests: non-default seeds, dateline/pole edge cases, and
   full-scale dataset builds — the failure modes calibration-only tests
   miss. *)

let check_close eps = Alcotest.(check (float eps))

(* --- Dataset generators under other seeds --- *)

let test_submarine_other_seeds () =
  List.iter
    (fun seed ->
      let net = Datasets.Submarine.build ~seed () in
      Alcotest.(check int)
        (Printf.sprintf "seed %d landing points" seed)
        Datasets.Submarine.target_landing_points (Infra.Network.nb_nodes net);
      let cables = Infra.Network.nb_cables net in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d cables %d near target" seed cables)
        true
        (abs (cables - Datasets.Submarine.target_cables) <= 12);
      let g, _ = Infra.Network.to_graph net in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d connected" seed)
        true
        (Netgraph.Traversal.is_connected g);
      let above40 =
        Geo.Latband.fraction_above (Infra.Network.endpoint_latitudes net) ~threshold:40.0
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d skew %.2f" seed above40)
        true
        (above40 > 0.24 && above40 < 0.38))
    [ 1; 7; 123 ]

let test_intertubes_other_seeds () =
  List.iter
    (fun seed ->
      let net = Datasets.Intertubes.build ~seed () in
      Alcotest.(check int) "nodes" Datasets.Intertubes.target_nodes (Infra.Network.nb_nodes net);
      Alcotest.(check int) "links" Datasets.Intertubes.target_links (Infra.Network.nb_cables net))
    [ 5; 99 ]

let test_caida_other_seed_quantiles () =
  let ases = Datasets.Caida.build ~seed:17 ~ases:4000 () in
  let cdf = Datasets.Caida.spread_cdf ases in
  let q p = fst (List.find (fun (_, f) -> f >= p) cdf) in
  Alcotest.(check bool) "median stable across seeds" true (q 0.5 > 1.0 && q 0.5 < 2.6)

let test_itu_full_scale_build () =
  (* The full 11,314-node network must build and meet its counts. *)
  let net = Datasets.Itu.build ~scale:1.0 () in
  Alcotest.(check int) "nodes" Datasets.Itu.target_nodes (Infra.Network.nb_nodes net);
  Alcotest.(check int) "links" Datasets.Itu.target_links (Infra.Network.nb_cables net);
  let frac_norep =
    float_of_int (Infra.Network.cables_without_repeaters net ~spacing_km:150.0)
    /. float_of_int (Infra.Network.nb_cables net)
  in
  Alcotest.(check bool)
    (Printf.sprintf "unrepeatered %.2f in [0.5, 0.9]" frac_norep)
    true
    (frac_norep > 0.5 && frac_norep < 0.9)

(* --- Dateline and pole edge cases --- *)

let test_geodesic_across_dateline () =
  let fiji = Geo.Coord.make ~lat:(-18.14) ~lon:178.44 in
  let samoa = Geo.Coord.make ~lat:(-13.85) ~lon:(-171.75) in
  let d = Geo.Distance.haversine_km fiji samoa in
  (* Suva-Apia is ~1,150 km, NOT the 38,000 km of the long way round. *)
  Alcotest.(check bool) (Printf.sprintf "%.0f km short way" d) true (d > 1000.0 && d < 1400.0);
  let mid = Geo.Geodesic.intermediate fiji samoa 0.5 in
  Alcotest.(check bool) "midpoint near the dateline" true
    (Geo.Coord.abs_lat mid < 20.0 && Geo.Angle.angular_diff (Geo.Coord.lon mid) 180.0 < 6.0)

let test_positions_along_dateline_cable () =
  let fiji = Geo.Coord.make ~lat:(-18.14) ~lon:178.44 in
  let samoa = Geo.Coord.make ~lat:(-13.85) ~lon:(-171.75) in
  let path = Geo.Geodesic.waypoints fiji samoa ~n:20 in
  let repeaters = Geo.Geodesic.positions_along path ~spacing_km:150.0 in
  Alcotest.(check bool) "has repeaters" true (List.length repeaters >= 6);
  List.iter
    (fun (_, p) ->
      Alcotest.(check bool) "repeater stays in the region" true
        (Geo.Coord.lat p > -20.0 && Geo.Coord.lat p < -12.0))
    repeaters

let test_cable_across_dateline () =
  let c =
    Infra.Cable.make ~id:0 ~name:"dateline" ~kind:Infra.Cable.Submarine
      ~landings:
        [ (0, Geo.Coord.make ~lat:(-18.14) ~lon:178.44);
          (1, Geo.Coord.make ~lat:(-13.85) ~lon:(-171.75)) ]
      ()
  in
  Alcotest.(check bool) "short great-circle length" true
    (c.Infra.Cable.length_km > 1000.0 && c.Infra.Cable.length_km < 1400.0)

let test_near_pole_projection_and_distance () =
  let a = Geo.Coord.make ~lat:89.0 ~lon:0.0 and b = Geo.Coord.make ~lat:89.0 ~lon:180.0 in
  let d = Geo.Distance.haversine_km a b in
  (* Across the pole: 2 degrees of arc ~ 222 km. *)
  check_close 3.0 "over the pole" 222.4 d

let test_gic_path_near_dateline () =
  let storm = Gic.Disturbance.storm_of_dst (-1200.0) in
  let path =
    Geo.Geodesic.waypoints
      (Geo.Coord.make ~lat:50.0 ~lon:170.0)
      (Geo.Coord.make ~lat:52.0 ~lon:(-170.0))
      ~n:12
  in
  let r = Gic.Induced.compute ~storm ~path ~ground_chainages_km:[] () in
  Alcotest.(check bool) "finite positive GIC" true
    (Float.is_finite r.Gic.Induced.peak_gic_a && r.Gic.Induced.peak_gic_a > 0.0)

(* --- Model boundary conditions --- *)

let test_montecarlo_empty_model_boundaries () =
  let net = Datasets.Intertubes.build () in
  let expected_zero =
    Stormsim.Montecarlo.expected_cables_failed_pct ~network:net ~spacing_km:150.0
      ~model:(Stormsim.Failure_model.uniform 0.0)
  in
  check_close 1e-12 "analytic zero" 0.0 expected_zero;
  let expected_all =
    Stormsim.Montecarlo.expected_cables_failed_pct ~network:net ~spacing_km:150.0
      ~model:(Stormsim.Failure_model.uniform 1.0)
  in
  let repeatered_pct =
    100.0
    *. float_of_int
         (Infra.Network.nb_cables net
         - Infra.Network.cables_without_repeaters net ~spacing_km:150.0)
    /. float_of_int (Infra.Network.nb_cables net)
  in
  check_close 1e-9 "analytic all-repeatered" repeatered_pct expected_all

let test_country_empty_group_is_loss () =
  (* A spec whose cable set is empty counts as lost (nothing to keep). *)
  let net = Datasets.Submarine.build () in
  let spec =
    { Stormsim.Country.id = "empty-test"; description = "no cables";
      group_a = [ "Mongolia" ]; group_b = [ "Brazil" ];
      metric = Stormsim.Country.Direct_loss; state = Stormsim.Failure_model.s2;
      state_name = "S2"; expectation = "no direct cables exist" }
  in
  let f = Stormsim.Country.evaluate ~trials:5 net spec in
  check_close 1e-9 "always lost" 1.0 f.Stormsim.Country.loss_probability;
  Alcotest.(check int) "no cables" 0 f.Stormsim.Country.direct_cables

let test_country_routed_metric () =
  (* Routed connectivity sees multi-hop paths that direct cables miss:
     under a no-failure state every pair of connected shores is routed. *)
  let net = Datasets.Submarine.build () in
  let spec =
    { Stormsim.Country.id = "routed-test"; description = "multi-hop";
      group_a = [ "New Zealand" ]; group_b = [ "Portugal" ];
      metric = Stormsim.Country.Routed_loss; state = Stormsim.Failure_model.uniform 0.0;
      state_name = "none"; expectation = "reachable over the healthy fabric" }
  in
  let f = Stormsim.Country.evaluate ~trials:3 net spec in
  Alcotest.(check (float 1e-9)) "never lost when nothing fails" 0.0
    f.Stormsim.Country.loss_probability;
  (* Under S1 the NZ-Portugal route crosses many vulnerable systems; loss
     must be at least sometimes observed or the metric is vacuous. *)
  let s1 = { spec with Stormsim.Country.state = Stormsim.Failure_model.s1_geomag } in
  let f1 = Stormsim.Country.evaluate ~trials:20 net s1 in
  Alcotest.(check bool) "loss observed under geomagnetic S1" true
    (f1.Stormsim.Country.loss_probability > 0.0)

let test_resilience_sweep_custom_probabilities () =
  let net = Datasets.Intertubes.build () in
  let pts =
    Stormsim.Resilience.fig6_7 ~trials:2 ~probabilities:[ 0.5 ]
      ~networks:[ ("X", net) ] ()
  in
  Alcotest.(check int) "3 spacings x 1 net x 1 p" 3 (List.length pts)

let test_scenario_pp_mentions_networks () =
  let nets = [ ("alpha", Datasets.Intertubes.build ()) ] in
  let s = Stormsim.Scenario.run ~trials:2 ~cme:Spaceweather.Cme.quebec_1989 ~networks:nets () in
  let text = Format.asprintf "%a" Stormsim.Scenario.pp s in
  Alcotest.(check bool) "network named" true
    (let rec contains i =
       i + 5 <= String.length text && (String.sub text i 5 = "alpha" || contains (i + 1))
     in
     contains 0)

let () =
  Alcotest.run "robustness"
    [
      ( "seeds",
        [ Alcotest.test_case "submarine seeds" `Slow test_submarine_other_seeds;
          Alcotest.test_case "intertubes seeds" `Quick test_intertubes_other_seeds;
          Alcotest.test_case "caida seed quantiles" `Quick test_caida_other_seed_quantiles;
          Alcotest.test_case "itu full scale" `Slow test_itu_full_scale_build ] );
      ( "dateline_poles",
        [ Alcotest.test_case "geodesic across dateline" `Quick test_geodesic_across_dateline;
          Alcotest.test_case "repeaters across dateline" `Quick
            test_positions_along_dateline_cable;
          Alcotest.test_case "cable across dateline" `Quick test_cable_across_dateline;
          Alcotest.test_case "over the pole" `Quick test_near_pole_projection_and_distance;
          Alcotest.test_case "gic near dateline" `Quick test_gic_path_near_dateline ] );
      ( "boundaries",
        [ Alcotest.test_case "montecarlo analytic bounds" `Quick
            test_montecarlo_empty_model_boundaries;
          Alcotest.test_case "country empty group" `Quick test_country_empty_group_is_loss;
          Alcotest.test_case "country routed metric" `Quick test_country_routed_metric;
          Alcotest.test_case "custom sweep" `Quick test_resilience_sweep_custom_probabilities;
          Alcotest.test_case "scenario pp" `Quick test_scenario_pp_mentions_networks ] );
    ]
