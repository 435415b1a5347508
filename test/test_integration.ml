(* Cross-library integration tests: the pipelines that tie space weather,
   GIC, datasets, the Monte-Carlo engine and the reporting harness
   together must stay mutually consistent. *)

let submarine = lazy (Datasets.Submarine.build ())
let ctx = lazy (Report.Figures.make_context ~itu_scale:0.05 ~caida_ases:800 ())

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* --- CME -> storm -> failure pipeline --- *)

(* The probabilistic model [Scenario.run] picks for a CME's storm. *)
let scenario_model cme =
  let s =
    Stormsim.Scenario.run ~trials:1 ~cme ~networks:[ ("submarine", Lazy.force submarine) ] ()
  in
  match s.Stormsim.Scenario.impacts with
  | [ i ] -> i.Stormsim.Scenario.model
  | _ -> Alcotest.fail "expected one impact"

let test_carrington_end_to_end_severity () =
  (* The catalog CME must map to a Carrington-class Dst, which must map to
     the S1 model, whose submarine impact must sit in the Fig. 8 band. *)
  let cme = Spaceweather.Cme.carrington_1859 in
  let dst = Spaceweather.Cme.expected_dst cme in
  Alcotest.(check string) "class" "carrington"
    (Spaceweather.Dst.severity_to_string (Spaceweather.Dst.severity_of_dst dst));
  let model = scenario_model cme in
  Alcotest.(check string) "model is S1" "tiered[1; 0.1; 0.01]"
    (Stormsim.Failure_model.to_string model);
  let s =
    Stormsim.Montecarlo.run ~trials:10 ~seed:7 ~network:(Lazy.force submarine)
      ~spacing_km:150.0 ~model ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f%% in fig8 band" s.Stormsim.Montecarlo.cables_mean)
    true
    (s.Stormsim.Montecarlo.cables_mean > 18.0 && s.Stormsim.Montecarlo.cables_mean < 50.0)

let test_noaa_announcement_consistent_with_model_tiers () =
  (* A storm NOAA would announce as G5 (Dst −700 nT) must map to a model
     at least as harsh as S2 through the scenario severity mapping. *)
  let cme = Spaceweather.Cme.make ~speed_km_s:1800.0 () in
  Alcotest.(check (float 10.0)) "a -700 nT storm" (-700.0) (Spaceweather.Cme.expected_dst cme);
  Alcotest.(check string) "at least S2" "tiered[0.1; 0.01; 0.001]"
    (Stormsim.Failure_model.to_string (scenario_model cme))

(* --- GIC physics vs probabilistic model --- *)

let test_physical_model_orders_with_storm () =
  let net = Lazy.force submarine in
  let expected dst =
    Stormsim.Montecarlo.expected_cables_failed_pct ~network:net ~spacing_km:150.0
      ~model:(Stormsim.Failure_model.Gic_physical { dst_nt = dst; scale_a = 30.0 })
  in
  let quebec = expected (-589.0) and carrington = expected (-1200.0) in
  Alcotest.(check bool) "carrington > quebec" true (carrington > quebec);
  Alcotest.(check bool) "both nonzero" true (quebec > 0.5)

let test_exposure_latitude_structure () =
  (* Physical exposures must be systematically larger for high-latitude
     cables: compare the mean GIC of high-tier vs low-tier cables. *)
  let net = Lazy.force submarine in
  let storm = Gic.Disturbance.storm_of_dst (-1200.0) in
  let exposures = Infra.Exposure.network_exposures ~storm net in
  let mean_for tier =
    let acc = ref 0.0 and n = ref 0 in
    for c = 0 to Infra.Network.nb_cables net - 1 do
      let cable = Infra.Network.cable net c in
      if Infra.Cable.risk_tier cable = tier && cable.Infra.Cable.length_km > 500.0 then begin
        acc := !acc +. exposures.(c).Infra.Exposure.peak_gic_a;
        incr n
      end
    done;
    if !n = 0 then 0.0 else !acc /. float_of_int !n
  in
  Alcotest.(check bool) "mid-tier cables see more GIC than low-tier" true
    (mean_for Geo.Latband.Mid > mean_for Geo.Latband.Low)

(* --- Harness determinism and coherence --- *)

let test_figures_deterministic () =
  let c = Lazy.force ctx in
  let once = Report.Figures.render ~trials:3 c "fig8" in
  let again = Report.Figures.render ~trials:3 c "fig8" in
  Alcotest.(check (option string)) "same output" once again

let test_dataset_rebuild_identical () =
  let a = Datasets.Submarine.build () and b = Datasets.Submarine.build () in
  let names net =
    List.init (Infra.Network.nb_cables net) (fun i ->
        (Infra.Network.cable net i).Infra.Cable.name)
  in
  Alcotest.(check (list string)) "same cables" (names a) (names b)

let test_markdown_document_covers_all_figures () =
  let figures = [ ("fig3", "data3"); ("countries", "data-c") ] in
  let path = Filename.temp_file "stormmd" ".md" in
  Report.Markdown.write_results ~path figures;
  let doc = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "title" true (contains doc "# solarstorm results\n");
  List.iter
    (fun (id, body) ->
      Alcotest.(check bool) (id ^ " section") true (contains doc ("## " ^ id));
      Alcotest.(check bool) (id ^ " body") true (contains doc body))
    figures

(* --- Country vs capacity coherence --- *)

let test_country_and_capacity_agree_on_atlantic () =
  let net = Lazy.force submarine in
  let finding =
    Stormsim.Country.evaluate ~trials:30 net
      (List.find
         (fun (s : Stormsim.Country.spec) -> s.Stormsim.Country.id = "ne-europe-s1")
         Stormsim.Country.paper_case_studies)
  in
  let corridor =
    List.hd
      (Stormsim.Capacity.standard_report ~trials:5 ~network:net
         ~model:Stormsim.Failure_model.s1 ())
  in
  (* If the NE-Europe direct cables almost surely die, the corridor's
     surviving capacity share must also be small. *)
  Alcotest.(check bool) "case lost" true (finding.Stormsim.Country.loss_probability > 0.9);
  Alcotest.(check bool) "capacity collapsed" true
    (corridor.Stormsim.Capacity.surviving_pct < 35.0)

(* --- Mitigation coherence --- *)

let test_shutdown_plan_and_decision_agree () =
  (* Both views of de-powering must report the same direction of effect. *)
  let net = Lazy.force submarine in
  let cme = Spaceweather.Cme.carrington_1859 in
  let plan = Stormsim.Mitigation.shutdown_plan ~cme ~network:net () in
  let decision = Stormsim.Mitigation.shutdown_decision ~cme ~network:net () in
  Alcotest.(check bool) "plan benefit positive" true (plan.Stormsim.Mitigation.benefit_pct > 0.0);
  Alcotest.(check bool) "decision failure fractions ordered" true
    (decision.Stormsim.Mitigation.failure_fraction_off
    < decision.Stormsim.Mitigation.failure_fraction_powered);
  Alcotest.(check (float 1e-6)) "plan and decision share the powered fraction"
    (plan.Stormsim.Mitigation.cables_failed_on_pct /. 100.0)
    decision.Stormsim.Mitigation.failure_fraction_powered

let test_augmentation_shifts_partitions () =
  (* The greedy augmentation's chosen endpoints are low-latitude. *)
  let net = Lazy.force submarine in
  let augs = Stormsim.Mitigation.plan_augmentation ~budget:3 ~network:net () in
  List.iter
    (fun (a : Stormsim.Mitigation.augmentation) ->
      let lat_ok city =
        Geo.Coord.abs_lat (Datasets.Cities.find city).Datasets.Cities.pos < 45.0
      in
      Alcotest.(check bool) "low-latitude endpoints" true
        (lat_ok a.Stormsim.Mitigation.from_city && lat_ok a.Stormsim.Mitigation.to_city))
    augs

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [ Alcotest.test_case "carrington end-to-end" `Quick test_carrington_end_to_end_severity;
          Alcotest.test_case "noaa vs tiers" `Quick
            test_noaa_announcement_consistent_with_model_tiers ] );
      ( "physics",
        [ Alcotest.test_case "physical model ordering" `Quick
            test_physical_model_orders_with_storm;
          Alcotest.test_case "exposure latitude structure" `Slow
            test_exposure_latitude_structure ] );
      ( "harness",
        [ Alcotest.test_case "figures deterministic" `Quick test_figures_deterministic;
          Alcotest.test_case "dataset rebuild identical" `Quick test_dataset_rebuild_identical;
          Alcotest.test_case "markdown coverage" `Quick
            test_markdown_document_covers_all_figures ] );
      ( "coherence",
        [ Alcotest.test_case "country vs capacity" `Quick
            test_country_and_capacity_agree_on_atlantic;
          Alcotest.test_case "plan vs decision" `Quick test_shutdown_plan_and_decision_agree;
          Alcotest.test_case "augmentation latitude" `Quick test_augmentation_shifts_partitions ] );
    ]
