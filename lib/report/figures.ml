(* A context is the datasets' parameters; each accessor asks the
   process-wide Datasets.Cache, so a dataset is built on the first
   figure that needs it and contexts with the same parameters share the
   builds.  No [Lazy.t]: figures render on several domains at once, and
   forcing one lazy value from two domains raises [Lazy.Undefined]. *)
type context = { seed : int; itu_scale : float; caida_ases : int }

let make_context ?(seed = Datasets.default_seed) ?(itu_scale = 0.3) ?(caida_ases = 8000)
    () =
  { seed; itu_scale; caida_ases }

let submarine ctx = Datasets.Cache.submarine ~seed:ctx.seed ()
let intertubes ctx = Datasets.Cache.intertubes ~seed:ctx.seed ()
let itu ctx = Datasets.Cache.itu ~seed:ctx.seed ~scale:ctx.itu_scale ()
let ases ctx = Datasets.Cache.caida ~seed:ctx.seed ~ases:ctx.caida_ases ()
let dns ctx = Datasets.Cache.dns_roots ~seed:ctx.seed ()
let ixps ctx = Datasets.Cache.ixp ~seed:ctx.seed ()

let networks ctx =
  [ ("Submarine", submarine ctx); ("Intertubes", intertubes ctx); ("ITU", itu ctx) ]

let fig1 ctx =
  let ixp_points = Array.to_list (Array.map (fun i -> i.Datasets.Ixp.pos) (ixps ctx)) in
  let layers =
    Worldmap.network_layers ~cable_glyph:'-' ~node_glyph:'o' (submarine ctx)
    @ [ Worldmap.Points ('X', ixp_points) ]
  in
  "Figure 1: submarine cables (-), landing stations (o) and IXPs (X)\n"
  ^ Worldmap.render layers

let fig2 _ctx =
  let points op =
    List.map (fun s -> s.Datasets.Datacenters.pos) (Datasets.Datacenters.(match op with `G -> google | `F -> facebook))
  in
  "Figure 2: data centers - Google (G), Facebook (F)\n"
  ^ Worldmap.render
      [ Worldmap.Points ('G', points `G); Worldmap.Points ('F', points `F) ]

let to_plot_series (l : (string * (float * float) list) list) =
  List.map (fun (label, points) -> { Ascii_plot.label; points }) l

let fig3 ctx =
  let series = Stormsim.Distribution.fig3 ~submarine:(submarine ctx) in
  let plot =
    Ascii_plot.plot ~x_label:"latitude (deg)" ~y_label:"probability density (%)"
      ~title:"Figure 3: PDF of population and submarine endpoints vs latitude"
      (to_plot_series
         (List.map (fun (s : Stormsim.Distribution.pdf_series) -> (s.label, s.points)) series))
  in
  let above40 (s : Stormsim.Distribution.pdf_series) =
    Stormsim.Distribution.mass_above s ~threshold:40.0
  in
  plot
  ^ String.concat ""
      (List.map
         (fun (s : Stormsim.Distribution.pdf_series) ->
           Printf.sprintf "  %s: %.1f%% above |40 deg|\n" s.label (above40 s))
         series)

let threshold_figure ~title series =
  let plot =
    Ascii_plot.plot ~x_label:"|latitude| threshold (deg)" ~y_label:"% above threshold"
      ~title
      (to_plot_series
         (List.map
            (fun (s : Stormsim.Distribution.threshold_series) -> (s.label, s.points))
            series))
  in
  let rows =
    List.map
      (fun (s : Stormsim.Distribution.threshold_series) ->
        (s.label, List.map snd s.points))
      series
  in
  let header = "series" :: List.map (fun t -> Printf.sprintf "%.0f" t)
                  (List.map fst (match series with
                     | (s : Stormsim.Distribution.threshold_series) :: _ -> s.points
                     | [] -> []))
  in
  plot ^ Table.render_floats ~header ~fmt:(Printf.sprintf "%.1f") rows

let fig4a ctx =
  threshold_figure
    ~title:"Figure 4a: long-distance cable endpoints above latitude thresholds"
    (Stormsim.Distribution.fig4a ~submarine:(submarine ctx) ~intertubes:(intertubes ctx))

let fig4b ctx =
  let routers = Datasets.Caida.router_latitudes (ases ctx) in
  threshold_figure ~title:"Figure 4b: other infrastructure above latitude thresholds"
    (Stormsim.Distribution.fig4b ~routers ~ixps:(ixps ctx) ~dns:(dns ctx))

let fig5 ctx =
  let series =
    Stormsim.Distribution.fig5 ~submarine:(submarine ctx) ~intertubes:(intertubes ctx)
      ~itu:(itu ctx)
  in
  let plot =
    Ascii_plot.plot ~log_x:true ~x_label:"length (km)" ~y_label:"CDF"
      ~title:"Figure 5: cable length CDFs"
      (to_plot_series
         (List.map (fun (s : Stormsim.Distribution.cdf_series) -> (s.label, s.points)) series))
  in
  let quants (s : Stormsim.Distribution.cdf_series) =
    let lengths = List.map fst s.points in
    Printf.sprintf "  %-22s median %7.0f km   p99 %8.0f km   max %8.0f km\n" s.label
      (Stormsim.Stats.median lengths)
      (Stormsim.Stats.percentile lengths ~p:99.0)
      (List.fold_left Float.max 0.0 lengths)
  in
  plot ^ String.concat "" (List.map quants series)

let sweep_figure ~title ~value ~std points =
  let spacings = Infra.Repeater.paper_spacings_km in
  String.concat "\n"
    (List.map
       (fun spacing ->
         let networks =
           List.sort_uniq compare
             (List.map (fun (p : Stormsim.Resilience.sweep_point) -> p.network) points)
         in
         let series =
           List.map
             (fun net ->
               {
                 Ascii_plot.label = net;
                 points =
                   List.filter_map
                     (fun (p : Stormsim.Resilience.sweep_point) ->
                       if p.network = net && Float.abs (p.spacing_km -. spacing) < 1e-9
                       then Some (p.probability, value p.series)
                       else None)
                     points;
               })
             networks
         in
         let rows =
           List.concat_map
             (fun (p : Stormsim.Resilience.sweep_point) ->
               if Float.abs (p.spacing_km -. spacing) < 1e-9 then
                 [ [ p.network;
                     Printf.sprintf "%.3f" p.probability;
                     Printf.sprintf "%.1f" (value p.series);
                     Printf.sprintf "%.1f" (std p.series) ] ]
               else [])
             points
         in
         Ascii_plot.plot ~log_x:true ~x_label:"prob. of repeater failure"
           ~y_label:"%"
           ~title:(Printf.sprintf "%s - repeater distance %.0f km" title spacing)
           series
         ^ Table.render ~header:[ "network"; "p"; "mean%"; "std" ] rows)
       spacings)

let fig6 ?(trials = 10) ctx =
  let points = Stormsim.Resilience.fig6_7 ~trials ~networks:(networks ctx) () in
  sweep_figure ~title:"Figure 6: cables failed (%) under uniform repeater failure"
    ~value:(fun s -> s.Stormsim.Montecarlo.cables_mean)
    ~std:(fun s -> s.Stormsim.Montecarlo.cables_std)
    points

let fig7 ?(trials = 10) ctx =
  let points = Stormsim.Resilience.fig6_7 ~trials ~networks:(networks ctx) () in
  sweep_figure ~title:"Figure 7: nodes unreachable (%) under uniform repeater failure"
    ~value:(fun s -> s.Stormsim.Montecarlo.nodes_mean)
    ~std:(fun s -> s.Stormsim.Montecarlo.nodes_std)
    points

let fig8 ?(trials = 10) ctx =
  let nets = [ ("Submarine", (submarine ctx)); ("Intertubes", (intertubes ctx)) ] in
  let points = Stormsim.Resilience.fig8 ~trials ~networks:nets () in
  let rows =
    List.map
      (fun (p : Stormsim.Resilience.tiered_point) ->
        [ p.state;
          Printf.sprintf "%.0f" p.spacing_km;
          p.network;
          Printf.sprintf "%.1f" p.series.Stormsim.Montecarlo.cables_mean;
          Printf.sprintf "%.1f" p.series.Stormsim.Montecarlo.cables_std;
          Printf.sprintf "%.1f" p.series.Stormsim.Montecarlo.nodes_mean;
          Printf.sprintf "%.1f" p.series.Stormsim.Montecarlo.nodes_std ])
      points
  in
  "Figure 8: failures under non-uniform (latitude-tiered) repeater failure\n"
  ^ "S1 = [1; 0.1; 0.01], S2 = [0.1; 0.01; 0.001] over tiers >60 / 40-60 / <40 deg\n"
  ^ Table.render
      ~header:[ "state"; "spacing"; "network"; "cables%"; "sd"; "nodes%"; "sd" ]
      rows

let fig9a ctx =
  let summary = Stormsim.Systems.analyze_ases (ases ctx) in
  Ascii_plot.plot ~x_label:"|latitude| threshold (deg)" ~y_label:"ASes with presence (%)"
    ~title:"Figure 9a: reach of ASes above latitude thresholds"
    [ { Ascii_plot.label = "ASes"; points = summary.Stormsim.Systems.reach_curve } ]
  ^ Printf.sprintf "  ASes with presence above |40 deg|: %.1f%%\n"
      summary.Stormsim.Systems.reach_above_40_pct

let fig9b ctx =
  let summary = Stormsim.Systems.analyze_ases (ases ctx) in
  (* Subsample the CDF for plotting. *)
  let cdf = summary.Stormsim.Systems.spread_cdf in
  let n = List.length cdf in
  let sampled = List.filteri (fun i _ -> i mod Int.max 1 (n / 200) = 0) cdf in
  Ascii_plot.plot ~x_label:"spread of ASes (degrees of latitude)" ~y_label:"CDF"
    ~title:"Figure 9b: CDF of AS latitude spread"
    [ { Ascii_plot.label = "ASes"; points = sampled } ]
  ^ Printf.sprintf "  median spread %.3f deg; p90 %.3f deg (1 deg ~ 111 km)\n"
      summary.Stormsim.Systems.median_spread_deg summary.Stormsim.Systems.p90_spread_deg

let countries ?(trials = 50) ctx =
  let findings = Stormsim.Country.run_all ~trials (submarine ctx) in
  let rows =
    List.map
      (fun (f : Stormsim.Country.finding) ->
        [ f.spec.Stormsim.Country.id;
          f.spec.Stormsim.Country.state_name;
          Printf.sprintf "%d" f.direct_cables;
          Printf.sprintf "%.2f" f.loss_probability;
          f.spec.Stormsim.Country.expectation ])
      findings
  in
  "Country-scale connectivity (4.3.4): probability the connectivity metric is LOST\n"
  ^ Table.render ~header:[ "case"; "state"; "cables"; "P(loss)"; "paper expectation" ] rows

let systems ctx =
  let asys = Stormsim.Systems.analyze_ases (ases ctx) in
  let dcs = Stormsim.Systems.analyze_datacenters () in
  let dns = Stormsim.Systems.analyze_dns (dns ctx) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Systems resilience (4.4)\n";
  Buffer.add_string buf
    (Printf.sprintf
       "ASes: %d total; %.1f%% reach above |40|; spread median %.2f deg, p90 %.2f deg\n"
       asys.Stormsim.Systems.total asys.Stormsim.Systems.reach_above_40_pct
       asys.Stormsim.Systems.median_spread_deg asys.Stormsim.Systems.p90_spread_deg);
  List.iter
    (fun (d : Stormsim.Systems.dc_summary) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-9s %2d sites, %d continents, spread %5.1f deg, %4.1f%% above |40|, score %.3f\n"
           (Datasets.Datacenters.operator_to_string d.Stormsim.Systems.operator)
           d.Stormsim.Systems.sites d.Stormsim.Systems.continents
           d.Stormsim.Systems.latitude_spread_deg d.Stormsim.Systems.share_above_40_pct
           d.Stormsim.Systems.resilience_score))
    dcs;
  Buffer.add_string buf
    (Printf.sprintf
       "DNS roots: %d instances / %d letters / %d continents, %.1f%% above |40|, score %.3f\n"
       dns.Stormsim.Systems.instances dns.Stormsim.Systems.letters
       dns.Stormsim.Systems.continents dns.Stormsim.Systems.share_above_40_pct
       dns.Stormsim.Systems.resilience_score);
  Buffer.contents buf

let probability () =
  let open Spaceweather in
  let rows =
    [ [ "Riley 2012 power-law, P(Carrington-class)/decade";
        Printf.sprintf "%.3f" Probability.riley_decadal ];
      [ "Kirchen 2020 estimate /decade"; Printf.sprintf "%.3f" Probability.kirchen_decadal ];
      [ "Bernoulli once-in-100y event /decade";
        Printf.sprintf "%.3f" Probability.bernoulli_decadal_of_centennial ];
      [ "Direct-impact large events /century (low)";
        Printf.sprintf "%.1f" (Probability.direct_impact_per_century ~low:true) ];
      [ "Direct-impact large events /century (high)";
        Printf.sprintf "%.1f" (Probability.direct_impact_per_century ~low:false) ];
      [ "Carrington transit time (model)";
        Printf.sprintf "%.1f h" (Cme.transit_hours Cme.carrington_1859) ];
      [ "Expected events 2021-2050 (base 1/31.5 per yr)";
        Printf.sprintf "%.2f"
          (Probability.expected_events ~base_rate_per_year:(1.0 /. 31.5) ~start:2021.0
             ~stop:2050.0) ] ]
  in
  "Occurrence probabilities (2.3)\n" ^ Table.render ~header:[ "quantity"; "value" ] rows

let mitigation ctx =
  let open Stormsim in
  let plan =
    Mitigation.shutdown_plan ~cme:Spaceweather.Cme.carrington_1859 ~network:(submarine ctx) ()
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Mitigation planning (5)\n";
  Buffer.add_string buf
    (Printf.sprintf
       "Shutdown: lead %.1f h; expected cable failures %.1f%% powered vs %.1f%% off (benefit %.1f pts)\n"
       plan.Mitigation.actionable_lead_h plan.Mitigation.cables_failed_on_pct
       plan.Mitigation.cables_failed_off_pct plan.Mitigation.benefit_pct);
  let augs = Mitigation.plan_augmentation ~network:(submarine ctx) () in
  Buffer.add_string buf "Augmentation plan (greedy, S1 objective):\n";
  List.iter
    (fun (a : Mitigation.augmentation) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-16s -> %-16s %6.0f km  gain %.3f pairs\n"
           a.Mitigation.from_city a.Mitigation.to_city a.Mitigation.length_km
           a.Mitigation.gain))
    augs;
  let parts = Mitigation.predicted_partitions ~network:(submarine ctx) () in
  Buffer.add_string buf
    (Printf.sprintf "Predicted partitions under S1 (cables with <50%% survival removed): %d components; largest sizes %s\n"
       (List.length parts)
       (String.concat ", "
          (List.filteri (fun i _ -> i < 5) (List.map (fun c -> string_of_int (List.length c)) parts))));
  Buffer.contents buf

(* --- Extension experiments --- *)

let leo () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "LEO constellations under storms (3.3 extension; anchors: Feb 2022 Starlink, \
     Halloween 2003 drag)\n";
  let feb = Leo.Storm_impact.feb_2022_starlink () in
  Buffer.add_string buf (Format.asprintf "Feb 2022 replay: %a@." Leo.Storm_impact.pp feb);
  let car =
    Leo.Storm_impact.assess ~dst_nt:(-1200.0) Leo.Constellation.starlink_phase1
  in
  Buffer.add_string buf (Format.asprintf "Carrington: %a@." Leo.Storm_impact.pp car);
  Buffer.add_string buf
    (Printf.sprintf
       "drag enhancement at 550 km: 1989-class x%.1f, Carrington-class x%.0f\n"
       (Leo.Atmosphere.enhancement (Leo.Atmosphere.of_storm (-589.0)) ~alt_km:550.0)
       (Leo.Atmosphere.enhancement (Leo.Atmosphere.of_storm (-1200.0)) ~alt_km:550.0));
  Buffer.contents buf

let grid_coupling ?(trials = 10) ctx =
  let r =
    Stormsim.Powergrid.simulate ~trials ~network:(submarine ctx)
      ~model:Stormsim.Failure_model.s1 ~dst_nt:(-1200.0) ()
  in
  Printf.sprintf
    "Power-grid interdependence (5.5): Carrington + S1 on the submarine network\n\
     cables failed %.1f%%; landing stations dark: cables-only %.1f%%, grid-only %.1f%%, \
     either %.1f%% (amplification x%.2f)\n\
     grids down in most trials: %s\n"
    r.Stormsim.Powergrid.cables_failed_pct r.Stormsim.Powergrid.nodes_cable_dark_pct
    r.Stormsim.Powergrid.nodes_grid_dark_pct r.Stormsim.Powergrid.nodes_dark_pct
    r.Stormsim.Powergrid.amplification
    (String.concat ", " r.Stormsim.Powergrid.regions_down)

let aftermath ?(trials = 5) ctx =
  let buf = Buffer.create 512 in
  let tl, dead =
    Stormsim.Recovery.storm_recovery ~trials ~network:(submarine ctx)
      ~model:Stormsim.Failure_model.s1 ()
  in
  Buffer.add_string buf
    (Printf.sprintf
       "Aftermath of an S1 storm on the submarine network:\n\
        %.0f cables dead on average; repairs (60 ships): 50%% back in %.0f d, 90%% in \
        %.0f d, all in %.0f d (%.0f ship-days of work)\n"
       dead tl.Stormsim.Recovery.days_to_50_pct tl.Stormsim.Recovery.days_to_90_pct
       tl.Stormsim.Recovery.days_to_full tl.Stormsim.Recovery.total_ship_days);
  Buffer.add_string buf
    (Printf.sprintf "US economic impact at 30%% dark for the 90%%-repair window: $%.0f B\n"
       (Stormsim.Recovery.us_outage_cost_usd ~dark_fraction:0.3
          ~days:tl.Stormsim.Recovery.days_to_90_pct
       /. 1e9));
  let base, after =
    Stormsim.Traffic.storm_shift ~trials ~network:(submarine ctx)
      ~model:Stormsim.Failure_model.s2 ()
  in
  Buffer.add_string buf
    (Printf.sprintf
       "Traffic shifts under S2 (5.5): delivered %.0f%% -> %.0f%%; peak cable load %.1f \
        -> %.1f demand units\n"
       base.Stormsim.Traffic.delivered_pct after.Stormsim.Traffic.delivered_pct
       base.Stormsim.Traffic.max_cable_load after.Stormsim.Traffic.max_cable_load);
  Buffer.contents buf

let service_resilience ctx =
  let results = Stormsim.Resilience_test.run_suite ~network:(submarine ctx) () in
  let rows =
    List.map
      (fun (a : Stormsim.Resilience_test.availability) ->
        [ a.Stormsim.Resilience_test.service.Stormsim.Resilience_test.name;
          string_of_int
            (List.length a.Stormsim.Resilience_test.service.Stormsim.Resilience_test.replicas);
          Printf.sprintf "%.1f" a.Stormsim.Resilience_test.read_pct;
          Printf.sprintf "%.1f" a.Stormsim.Resilience_test.write_pct;
          Printf.sprintf "%.2f" a.Stormsim.Resilience_test.reachable_replicas_mean ])
      results
  in
  "Service resilience tests (5.4): availability under predicted S1 partitions\n"
  ^ Table.render ~header:[ "service"; "replicas"; "read%"; "write%"; "reach" ] rows

let ablations ?(trials = 10) ctx =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Ablations\n";
  Buffer.add_string buf "1. Vulnerable-latitude threshold (S1 submarine cables failed %):\n";
  List.iter
    (fun (th, v) -> Buffer.add_string buf (Printf.sprintf "   mid=%2.0f deg  %.1f%%\n" th v))
    (Stormsim.Sensitivity.threshold_sweep ~trials ~network:(submarine ctx) ());
  Buffer.add_string buf "2. Geographic vs geomagnetic tiers (cables failed %):\n";
  List.iter
    (fun (state, geo, gm) ->
      Buffer.add_string buf (Printf.sprintf "   %s: %.1f%% -> %.1f%%\n" state geo gm))
    (Stormsim.Sensitivity.geographic_vs_geomagnetic ~trials ~network:(submarine ctx) ());
  Buffer.add_string buf "3. Repeater spacing sweep (uniform p=0.01):\n";
  List.iter
    (fun (s, v) -> Buffer.add_string buf (Printf.sprintf "   %3.0f km  %.1f%%\n" s v))
    (Stormsim.Sensitivity.spacing_sweep ~trials ~network:(submarine ctx)
       ~model:(Stormsim.Failure_model.uniform 0.01) ());
  Buffer.add_string buf "4. GIC damage scale (Carrington physical, expected cables failed %):\n";
  List.iter
    (fun (s, v) -> Buffer.add_string buf (Printf.sprintf "   %4.0f A  %.1f%%\n" s v))
    (Stormsim.Sensitivity.scale_a_sweep ~network:(submarine ctx) ~dst_nt:(-1200.0) ());
  Buffer.add_string buf
    "5. Whole-cable vs segment-level failure (S1; the paper's single-repeater-kills-cable assumption):\n";
  let seg =
    Stormsim.Segment_model.compare_models ~trials ~network:(submarine ctx)
      ~model:Stormsim.Failure_model.s1 ()
  in
  Buffer.add_string buf
    (Printf.sprintf
       "   nodes unreachable: %.1f%% (cable-level) vs %.1f%% (segment-level); hops failed %.1f%%\n"
       seg.Stormsim.Segment_model.cable_level_nodes_pct
       seg.Stormsim.Segment_model.segment_level_nodes_pct
       seg.Stormsim.Segment_model.segment_level_segments_pct);
  Buffer.contents buf

let risk_horizon () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Decadal risk under the modulated Poisson model (2.3 extension):\n";
  List.iter
    (fun (a, b) ->
      let p =
        Spaceweather.Event_generator.carrington_in_window ~trials:300 ~seed:77 ~start:a
          ~stop:b ()
      in
      Buffer.add_string buf
        (Printf.sprintf "   %4.0f-%4.0f  P(Carrington-class impact) = %.2f\n" a b p))
    [ (2021.0, 2031.0); (2031.0, 2041.0); (2041.0, 2051.0); (2051.0, 2061.0) ];
  Buffer.add_string buf
    "   (long-run unmodulated decadal probability: 0.12; the coming decades sit on the\n\
    \    rising flank of the Gleissberg cycle)\n";
  Buffer.contents buf

let capacity ?(trials = 5) ctx =
  let rows model_name model =
    List.map
      (fun (r : Stormsim.Capacity.corridor_report) ->
        [ r.Stormsim.Capacity.corridor.Stormsim.Capacity.name;
          model_name;
          Printf.sprintf "%.0f" r.Stormsim.Capacity.healthy_tbps;
          Printf.sprintf "%.0f" r.Stormsim.Capacity.expected_tbps;
          Printf.sprintf "%.0f" r.Stormsim.Capacity.surviving_pct;
          String.concat "/"
            (List.filteri (fun i _ -> i < 3) r.Stormsim.Capacity.min_cut_cables) ])
      (Stormsim.Capacity.standard_report ~trials ~network:(submarine ctx) ~model ())
  in
  Printf.sprintf "Corridor capacity (max-flow, Tbps); installed total %.0f Tbps\n"
    (Stormsim.Capacity.network_capacity_tbps (submarine ctx))
  ^ Table.render
      ~header:[ "corridor"; "state"; "healthy"; "expected"; "surv%"; "min-cut (top 3)" ]
      (rows "S1" Stormsim.Failure_model.s1 @ rows "S2" Stormsim.Failure_model.s2)

let interdomain () =
  let t = Interdomain.As_topology.generate ~n:1500 () in
  let rows =
    List.map
      (fun (label, dst) ->
        let o = Interdomain.Storm.compare_protocols ~pairs:200 t ~dst_nt:dst in
        [ label;
          Printf.sprintf "%.1f" o.Interdomain.Storm.ases_down_pct;
          Printf.sprintf "%.1f" o.Interdomain.Storm.reachability_pct;
          Printf.sprintf "%.1f" o.Interdomain.Storm.bgp_continuity_pct;
          Printf.sprintf "%.1f" o.Interdomain.Storm.multipath_continuity_pct;
          Printf.sprintf "%.2f" o.Interdomain.Storm.mean_disjoint_paths ])
      [ ("intense (-300)", -300.0); ("extreme (-600)", -600.0);
        ("carrington (-1200)", -1200.0) ]
  in
  "Interdomain routing under AS failures (5.3): single-path BGP vs multipath\n\
   (1,500-AS Gao-Rexford topology; continuity = pre-storm path(s) survive)\n"
  ^ Table.render
      ~header:[ "storm"; "ASes down%"; "reachable%"; "BGP cont%"; "multipath%"; "paths" ]
      rows

let render_ns =
  Obs.Metrics.histogram "figures.render_ns"
    ~buckets:[| 1e6; 1e7; 1e8; 1e9; 1e10; 1e11 |]

(* Render one figure under a span named after its id, feeding the
   per-figure render-time histogram.  When observability is off this is
   the bare [f ctx]. *)
let timed id f ctx =
  if not (Obs.enabled ()) then f ctx
  else
    Obs.Span.with_ ~name:("figures." ^ id) (fun () ->
        let t0 = Obs.Span.now () in
        let text = f ctx in
        Obs.Metrics.observe render_ns (Int64.to_float (Int64.sub (Obs.Span.now ()) t0));
        text)

(* The one table of figures, in paper order: [all], [render] and [ids]
   all read it. *)
let table trials =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("fig5", fig5);
    ("fig6", fig6 ~trials);
    ("fig7", fig7 ~trials);
    ("fig8", fig8 ~trials);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("countries", countries ~trials:(Int.max 20 trials));
    ("systems", systems);
    ("probability", fun _ -> probability ());
    ("mitigation", mitigation);
    ("leo", fun _ -> leo ());
    ("grid-coupling", grid_coupling ~trials);
    ("aftermath", aftermath ~trials:(Int.min 5 trials));
    ("service-resilience", service_resilience);
    ("ablations", ablations ~trials);
    ("risk-horizon", fun _ -> risk_horizon ());
    ("interdomain", fun _ -> interdomain ());
    ("capacity", capacity ~trials:(Int.min 5 trials));
  ]

let ids = List.map fst (table 0)

let render ?(trials = 10) ctx id =
  Option.map (fun f -> timed id f ctx) (List.assoc_opt id (table trials))

(* Render order, as positions in [table]: the longest figures first, so
   a pool that takes them in this order finishes with short ones on
   every domain.  The rest go from the end of the table, the order the
   figure pass has always built its datasets in; starting from the top
   instead raised peak RSS at one job (23.9 against 23.1 MB). *)
let longest_first =
  [ "capacity"; "interdomain"; "fig7"; "mitigation"; "systems"; "aftermath"; "ablations" ]

let render_order =
  let pos = List.mapi (fun i id -> (id, i)) ids in
  Array.of_list
    (List.map
       (fun id -> List.assoc id pos)
       (longest_first @ List.filter (fun id -> not (List.mem id longest_first)) (List.rev ids)))

(* Every figure is one pool task ([~chunk:1]).  The trial loops inside a
   figure open nested sections, which run inline on the figure's domain.
   At one job this is one inline loop over [render_order]. *)
let all ?(trials = 10) ctx =
  let figs = Array.of_list (table trials) in
  let texts = Array.make (Array.length figs) "" in
  Exec.parallel_for ~chunk:1 ~jobs:(Exec.default_jobs ()) ~n:(Array.length render_order)
    (fun ~lo ~hi ->
      for k = lo to hi - 1 do
        let i = render_order.(k) in
        let id, f = figs.(i) in
        texts.(i) <- timed id f ctx
      done);
  List.mapi (fun i (id, _) -> (id, texts.(i))) (Array.to_list figs)
