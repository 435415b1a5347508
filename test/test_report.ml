(* Tests for the Report library: tables, ASCII plots, world maps, CSV
   export and the figure harness. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* Shared small context so the figure harness tests stay fast. *)
let ctx = lazy (Report.Figures.make_context ~itu_scale:0.05 ~caida_ases:1000 ())

(* One figure's text, as [figures --id] renders it. *)
let figure ?trials ?(ctx = ctx) id = Option.get (Report.Figures.render ?trials (Lazy.force ctx) id)

(* --- Table --- *)

let test_table_renders_rows () =
  let t = Report.Table.render ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  Alcotest.(check bool) "has header" true (contains t "name");
  Alcotest.(check bool) "has separator" true (contains t "---");
  Alcotest.(check bool) "has rows" true (contains t "bb")

let test_table_ragged_rows () =
  let t = Report.Table.render [ [ "a" ]; [ "b"; "c"; "d" ] ] in
  Alcotest.(check bool) "renders" true (String.length t > 0)

let test_table_empty () =
  Alcotest.(check string) "empty" "" (Report.Table.render [])

let test_table_floats () =
  let t = Report.Table.render_floats ~fmt:(Printf.sprintf "%.1f") [ ("x", [ 1.25; 2.0 ]) ] in
  Alcotest.(check bool) "formatted" true (contains t "1.2" || contains t "1.3")

(* --- Ascii_plot --- *)

let test_plot_contains_legend_and_axes () =
  let p =
    Report.Ascii_plot.plot ~title:"T" ~x_label:"xx" ~y_label:"yy"
      [ { Report.Ascii_plot.label = "series-one"; points = [ (0.0, 0.0); (1.0, 5.0) ] } ]
  in
  Alcotest.(check bool) "title" true (contains p "T");
  Alcotest.(check bool) "legend" true (contains p "series-one");
  Alcotest.(check bool) "x label" true (contains p "xx");
  Alcotest.(check bool) "y label" true (contains p "yy")

let test_plot_empty_series () =
  Alcotest.(check string) "placeholder" "(empty plot)\n" (Report.Ascii_plot.plot []);
  Alcotest.(check string) "all-empty" "(empty plot)\n"
    (Report.Ascii_plot.plot [ { Report.Ascii_plot.label = "e"; points = [] } ])

let test_plot_log_x_skips_nonpositive () =
  let p =
    Report.Ascii_plot.plot ~log_x:true
      [ { Report.Ascii_plot.label = "s"; points = [ (0.0, 1.0); (10.0, 2.0); (100.0, 3.0) ] } ]
  in
  Alcotest.(check bool) "renders" true (contains p "log scale")

let test_plot_constant_series () =
  let p =
    Report.Ascii_plot.plot
      [ { Report.Ascii_plot.label = "flat"; points = [ (0.0, 5.0); (1.0, 5.0) ] } ]
  in
  Alcotest.(check bool) "no crash on flat data" true (String.length p > 0)

(* --- Worldmap --- *)

let test_worldmap_dimensions () =
  let m = Report.Worldmap.render [] in
  let lines = String.split_on_char '\n' m |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "34 rows" 34 (List.length lines);
  List.iter (fun l -> Alcotest.(check int) "110 cols" 110 (String.length l)) lines

let test_worldmap_has_coastline () =
  let m = Report.Worldmap.render [] in
  Alcotest.(check bool) "land dots present" true (contains m ".")

let test_worldmap_plots_points () =
  let m =
    Report.Worldmap.render
      [ Report.Worldmap.Points ('Z', [ Geo.Coord.make ~lat:48.86 ~lon:2.35 ]) ]
  in
  Alcotest.(check bool) "glyph present" true (contains m "Z")

let test_worldmap_network_layers () =
  let ctx = Lazy.force ctx in
  let layers = Report.Worldmap.network_layers (Report.Figures.intertubes ctx) in
  Alcotest.(check int) "two layers" 2 (List.length layers)

(* --- Csv --- *)

(* A field's RFC-4180 quoting, as a series header spells it. *)
let test_csv_escape () =
  let header x = Report.Csv.of_series ~header:(x, "y") [] in
  Alcotest.(check string) "plain" "abc,y\n" (header "abc");
  Alcotest.(check string) "comma" "\"a,b\",y\n" (header "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\",y\n" (header "a\"b")

let test_csv_of_series () =
  let c = Report.Csv.of_series ~header:("x", "y") [ (1.0, 2.0); (3.5, 4.25) ] in
  Alcotest.(check bool) "header" true (contains c "x,y");
  Alcotest.(check bool) "row" true (contains c "3.5,4.25")

let test_csv_write_file () =
  let path = Filename.temp_file "stormcsv" ".csv" in
  Report.Csv.write_file ~path "a,b\n1,2\n";
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "written" "a,b" line

(* --- Figures --- *)

let test_figures_all_nonempty () =
  let figs = Report.Figures.all ~trials:2 (Lazy.force ctx) in
  Alcotest.(check int) "23 outputs" 23 (List.length figs);
  Alcotest.(check (list string)) "in ids order" Report.Figures.ids (List.map fst figs);
  List.iter
    (fun (id, text) ->
      Alcotest.(check bool) (id ^ " nonempty") true (String.length text > 40))
    figs;
  Alcotest.(check (option string))
    "render fig3 = the fig3 entry of all" (List.assoc_opt "fig3" figs)
    (Report.Figures.render ~trials:2 (Lazy.force ctx) "fig3")

(* [figures --id] renders one figure: fig3 reads the submarine map and
   nothing else, and an unknown id builds nothing. *)
let test_render_builds_only_its_datasets () =
  Datasets.Cache.clear ();
  Alcotest.(check (option string)) "unknown id" None
    (Report.Figures.render (Lazy.force ctx) "nope");
  Alcotest.(check int) "unknown id builds nothing" 0 (Datasets.Cache.build_count ());
  ignore (Report.Figures.render (Lazy.force ctx) "fig3");
  Alcotest.(check int) "fig3 builds one dataset" 1 (Datasets.Cache.build_count ())

let test_fig8_mentions_states () =
  let text = figure ~trials:2 "fig8" in
  Alcotest.(check bool) "S1" true (contains text "S1");
  Alcotest.(check bool) "S2" true (contains text "S2");
  Alcotest.(check bool) "both networks" true
    (contains text "Submarine" && contains text "Intertubes")

let test_countries_table_has_cases () =
  let text = figure ~trials:20 "countries" in
  List.iter
    (fun case -> Alcotest.(check bool) case true (contains text case))
    [ "us-europe-s1"; "singapore-hub-s1"; "brazil-europe-s1" ]

let test_probability_table_values () =
  let text = figure "probability" in
  Alcotest.(check bool) "kirchen" true (contains text "0.016");
  Alcotest.(check bool) "bernoulli" true (contains text "0.096")

(* Byte goldens measured before the figure pass cached its invariants
   (sunspot shape peaks, GIC exposures, the interdomain BFS workspace):
   those caches must not move a single output byte. *)
let golden name expected text =
  Alcotest.(check string) name expected (Digest.to_hex (Digest.string text))

let test_risk_horizon_golden () =
  golden "risk-horizon" "37bc0283a214b9b28b39d90525806b86" (figure "risk-horizon")

let test_probability_golden () =
  golden "probability" "645ee504e37df2a99e3cd30c608d8390" (figure "probability")

let test_interdomain_golden () =
  golden "interdomain" "d8708614f99f673fdfbac0c9dc6cad97" (figure "interdomain")

let test_ablations_golden () =
  golden "ablations" "4c127fc3a6b5939c7f707dc51a6f3fa1"
    (figure ~trials:10 "ablations")

let test_mitigation_golden () =
  golden "mitigation" "1881d938f9ff6feb373278ba95266044"
    (figure "mitigation")

(* Measured while capacity's max-flow still went through a persistent
   graph of the surviving cables, before it laid out its arcs straight
   from the cable list.  The figure reads only the submarine map, so the
   small test context and the default one agree. *)
let test_capacity_golden () =
  List.iter
    (fun (name, ctx) ->
      golden ("capacity, " ^ name) "5de35ea30aed3dca4b90233de7e34761"
        (figure ~trials:5 ~ctx "capacity"))
    [ ("test context", ctx); ("default context", lazy (Report.Figures.make_context ())) ]

let test_systems_output () =
  let text = figure "systems" in
  Alcotest.(check bool) "google" true (contains text "Google");
  Alcotest.(check bool) "facebook" true (contains text "Facebook");
  Alcotest.(check bool) "dns" true (contains text "DNS")

let () =
  Alcotest.run "report"
    [
      ( "table",
        [ Alcotest.test_case "renders" `Quick test_table_renders_rows;
          Alcotest.test_case "ragged" `Quick test_table_ragged_rows;
          Alcotest.test_case "empty" `Quick test_table_empty;
          Alcotest.test_case "floats" `Quick test_table_floats ] );
      ( "ascii_plot",
        [ Alcotest.test_case "legend and axes" `Quick test_plot_contains_legend_and_axes;
          Alcotest.test_case "empty series" `Quick test_plot_empty_series;
          Alcotest.test_case "log x" `Quick test_plot_log_x_skips_nonpositive;
          Alcotest.test_case "constant series" `Quick test_plot_constant_series ] );
      ( "worldmap",
        [ Alcotest.test_case "dimensions" `Quick test_worldmap_dimensions;
          Alcotest.test_case "coastline" `Quick test_worldmap_has_coastline;
          Alcotest.test_case "points" `Quick test_worldmap_plots_points;
          Alcotest.test_case "network layers" `Quick test_worldmap_network_layers ] );
      ( "csv",
        [ Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "of_series" `Quick test_csv_of_series;
          Alcotest.test_case "write_file" `Quick test_csv_write_file ] );
      ( "figures",
        [ Alcotest.test_case "all nonempty" `Slow test_figures_all_nonempty;
          Alcotest.test_case "render one figure" `Quick test_render_builds_only_its_datasets;
          Alcotest.test_case "fig8 states" `Quick test_fig8_mentions_states;
          Alcotest.test_case "countries table" `Quick test_countries_table_has_cases;
          Alcotest.test_case "probability table" `Quick test_probability_table_values;
          Alcotest.test_case "systems output" `Quick test_systems_output;
          Alcotest.test_case "risk-horizon golden" `Quick test_risk_horizon_golden;
          Alcotest.test_case "probability golden" `Quick test_probability_golden;
          Alcotest.test_case "interdomain golden" `Quick test_interdomain_golden;
          Alcotest.test_case "ablations golden" `Quick test_ablations_golden;
          Alcotest.test_case "mitigation golden" `Quick test_mitigation_golden;
          Alcotest.test_case "capacity golden" `Quick test_capacity_golden ] );
    ]
