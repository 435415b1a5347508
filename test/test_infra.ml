(* Tests for the Infra library: repeaters, power feeding, cables, grounding,
   networks and GIC exposure. *)

let check_close eps = Alcotest.(check (float eps))

let coord lat lon = Geo.Coord.make ~lat ~lon

(* --- Repeater --- *)

let test_repeater_count_basics () =
  Alcotest.(check int) "short cable none" 0
    (Infra.Repeater.count_for_length ~spacing_km:150.0 ~length_km:150.0);
  Alcotest.(check int) "300 km -> 1" 1
    (Infra.Repeater.count_for_length ~spacing_km:150.0 ~length_km:300.0);
  Alcotest.(check int) "400 km -> 2" 2
    (Infra.Repeater.count_for_length ~spacing_km:150.0 ~length_km:400.0);
  Alcotest.(check int) "zero length" 0
    (Infra.Repeater.count_for_length ~spacing_km:150.0 ~length_km:0.0)

let test_repeater_count_9000km_anchor () =
  (* SS 3.2.1: a 9,000 km cable has ~130 repeaters (70 km spacing). *)
  let n = Infra.Repeater.count_for_length ~spacing_km:70.0 ~length_km:9000.0 in
  Alcotest.(check bool) (Printf.sprintf "%d in [120, 135]" n) true (n >= 120 && n <= 135)

let test_repeater_count_validation () =
  Alcotest.check_raises "bad spacing"
    (Invalid_argument "Repeater.count_for_length: spacing <= 0") (fun () ->
      ignore (Infra.Repeater.count_for_length ~spacing_km:0.0 ~length_km:100.0));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Repeater.count_for_length: negative length") (fun () ->
      ignore (Infra.Repeater.count_for_length ~spacing_km:50.0 ~length_km:(-1.0)))

let test_paper_spacings () =
  Alcotest.(check (list (float 1e-9))) "50/100/150" [ 50.0; 100.0; 150.0 ]
    Infra.Repeater.paper_spacings_km

(* --- Power feed --- *)

let test_power_budget_9000km_anchor () =
  (* SS 3.2.1: ~11 kV for a 9,000 km cable. *)
  let b = Infra.Power_feed.budget_for ~length_km:9000.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "total %.0f V in [9.5k, 13k]" b.Infra.Power_feed.total_v)
    true
    (b.Infra.Power_feed.total_v > 9500.0 && b.Infra.Power_feed.total_v < 13000.0);
  Alcotest.(check bool) "~130 repeaters" true
    (b.Infra.Power_feed.repeaters >= 120 && b.Infra.Power_feed.repeaters <= 135)

let test_power_budget_monotone () =
  let short = Infra.Power_feed.budget_for ~length_km:1000.0 () in
  let long = Infra.Power_feed.budget_for ~length_km:12000.0 () in
  Alcotest.(check bool) "longer needs more" true
    (long.Infra.Power_feed.total_v > short.Infra.Power_feed.total_v)

let test_power_budget_validation () =
  Alcotest.check_raises "non-positive" (Invalid_argument "Power_feed.budget_for: length <= 0")
    (fun () -> ignore (Infra.Power_feed.budget_for ~length_km:0.0 ()))

let test_dual_end_feasibility () =
  let b9000 = Infra.Power_feed.budget_for ~length_km:9000.0 () in
  Alcotest.(check bool) "9000 km feasible" true (Infra.Power_feed.dual_end_feasible b9000);
  let b40000 = Infra.Power_feed.budget_for ~length_km:40000.0 () in
  Alcotest.(check bool) "40000 km infeasible" false (Infra.Power_feed.dual_end_feasible b40000)

let test_max_span () =
  let span = Infra.Power_feed.max_span_km () in
  Alcotest.(check bool) (Printf.sprintf "max span %.0f in [15k, 35k]" span) true
    (span > 15000.0 && span < 35000.0)

(* --- Cable --- *)

let landings_2 = [ (0, coord 40.0 (-74.0)); (1, coord 51.0 0.0) ]

let test_cable_make_defaults () =
  let c = Infra.Cable.make ~id:0 ~name:"t" ~kind:Infra.Cable.Submarine ~landings:landings_2 () in
  Alcotest.(check bool) "length >= great circle" true (c.Infra.Cable.length_km > 5000.0);
  check_close 1e-9 "max abs lat" 51.0 c.Infra.Cable.max_abs_lat;
  Alcotest.(check int) "one hop" 1 (Infra.Cable.hop_count c)

let test_cable_stated_length_raised () =
  (* A stated length below the geometric chain length is raised to it. *)
  let c =
    Infra.Cable.make ~id:0 ~name:"t" ~kind:Infra.Cable.Submarine ~landings:landings_2
      ~length_km:10.0 ()
  in
  Alcotest.(check bool) "raised" true (c.Infra.Cable.length_km > 5000.0)

let test_cable_validation () =
  Alcotest.check_raises "one landing" (Invalid_argument "Cable.make: fewer than 2 landings")
    (fun () ->
      ignore
        (Infra.Cable.make ~id:0 ~name:"t" ~kind:Infra.Cable.Submarine
           ~landings:[ (0, coord 0.0 0.0) ] ()));
  Alcotest.check_raises "duplicate" (Invalid_argument "Cable.make: duplicate landing node")
    (fun () ->
      ignore
        (Infra.Cable.make ~id:0 ~name:"t" ~kind:Infra.Cable.Submarine
           ~landings:[ (0, coord 0.0 0.0); (0, coord 1.0 1.0) ] ()))

let test_cable_risk_tier () =
  let low =
    Infra.Cable.make ~id:0 ~name:"low" ~kind:Infra.Cable.Submarine
      ~landings:[ (0, coord 1.0 103.0); (1, coord (-6.0) 106.0) ] ()
  in
  Alcotest.(check string) "low" "low" (Geo.Latband.tier_to_string (Infra.Cable.risk_tier low));
  let high =
    Infra.Cable.make ~id:0 ~name:"high" ~kind:Infra.Cable.Submarine
      ~landings:[ (0, coord 61.0 (-150.0)); (1, coord 47.0 (-122.0)) ] ()
  in
  Alcotest.(check string) "high" "high" (Geo.Latband.tier_to_string (Infra.Cable.risk_tier high))

let test_cable_repeater_count_uses_stated_length () =
  let c =
    Infra.Cable.make ~id:0 ~name:"t" ~kind:Infra.Cable.Submarine ~landings:landings_2
      ~length_km:9000.0 ()
  in
  Alcotest.(check int) "repeaters from stated length"
    (Infra.Repeater.count_for_length ~spacing_km:150.0 ~length_km:c.Infra.Cable.length_km)
    (Infra.Cable.repeater_count c ~spacing_km:150.0)

let test_segment_lengths_sum () =
  let landings =
    [ (0, coord 0.0 0.0); (1, coord 0.0 10.0); (2, coord 0.0 30.0) ]
  in
  let segs = Infra.Cable.segment_lengths landings ~length_km:4000.0 in
  Alcotest.(check int) "two segments" 2 (List.length segs);
  check_close 1e-6 "sums to stated" 4000.0 (List.fold_left ( +. ) 0.0 segs);
  (* Proportionality: second hop is twice the first. *)
  (match segs with
  | [ a; b ] -> check_close 1e-6 "2:1 ratio" 2.0 (b /. a)
  | _ -> Alcotest.fail "wrong arity")

(* --- Grounding --- *)

let test_grounding_short_cables () =
  Alcotest.(check (list (float 1e-9))) "under 50 km ungrounded" []
    (Infra.Grounding.chainages ~length_km:30.0 ())

let test_grounding_endpoints_and_intervals () =
  let ch = Infra.Grounding.chainages ~length_km:3500.0 () in
  Alcotest.(check (list (float 1e-9))) "grounds every 1400 km" [ 0.0; 1400.0; 2800.0; 3500.0 ] ch

let test_grounding_validation () =
  Alcotest.check_raises "negative length" (Invalid_argument "Grounding.chainages: negative length")
    (fun () -> ignore (Infra.Grounding.chainages ~length_km:(-1.0) ()))

(* --- Network --- *)

let mini_network () =
  let n id name lat lon =
    { Infra.Network.id; name; country = "X"; pos = coord lat lon }
  in
  let nodes =
    [ n 0 "a" 10.0 0.0; n 1 "b" 12.0 5.0; n 2 "c" 50.0 10.0; n 3 "d" 55.0 20.0;
      n 4 "isolated" 0.0 0.0 ]
  in
  let cable id name landings length =
    Infra.Cable.make ~id ~name ~kind:Infra.Cable.Submarine
      ~landings:(List.map (fun i -> (i, (List.nth nodes i).Infra.Network.pos)) landings)
      ~length_km:length ()
  in
  Infra.Network.create ~name:"mini" ~nodes
    ~cables:[ cable 0 "south" [ 0; 1 ] 700.0; cable 1 "north" [ 2; 3 ] 900.0;
              cable 2 "trunk" [ 0; 2; 3 ] 6000.0 ]

let test_network_create_validation () =
  let n id = { Infra.Network.id; name = "x"; country = "X"; pos = coord 0.0 0.0 } in
  Alcotest.check_raises "bad node ids"
    (Invalid_argument "Network.create: node ids must be 0..n-1 in order") (fun () ->
      ignore (Infra.Network.create ~name:"bad" ~nodes:[ n 1 ] ~cables:[]))

let test_network_accessors () =
  let net = mini_network () in
  Alcotest.(check int) "nodes" 5 (Infra.Network.nb_nodes net);
  Alcotest.(check int) "cables" 3 (Infra.Network.nb_cables net);
  Alcotest.(check string) "node name" "c" (Infra.Network.node net 2).Infra.Network.name;
  Alcotest.(check int) "cables at node 0" 2 (List.length (Infra.Network.cables_at net 0))

let test_network_to_graph () =
  let net = mini_network () in
  let g, edge_cable = Infra.Network.to_graph net in
  (* Edges: south 1 hop + north 1 hop + trunk 2 hops = 4. *)
  Alcotest.(check int) "edges" 4 (Netgraph.Graph.nb_edges g);
  Alcotest.(check int) "nodes incl. isolated" 5 (Netgraph.Graph.nb_nodes g);
  (* Every edge must map to a valid cable. *)
  List.iter
    (fun e ->
      let c = edge_cable e.Netgraph.Graph.id in
      Alcotest.(check bool) "cable id valid" true (c >= 0 && c < 3))
    (Netgraph.Graph.edges g)

let test_network_graph_without_cables () =
  let net = mini_network () in
  let dead = [| false; false; true |] in
  let g = Infra.Network.graph_without_cables net ~dead in
  Alcotest.(check int) "trunk removed" 2 (Netgraph.Graph.nb_edges g);
  Alcotest.(check bool) "0 and 2 disconnected" false (Netgraph.Traversal.same_component g 0 2)

let test_network_dead_array_mismatch () =
  let net = mini_network () in
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Network.graph_without_cables: dead array size mismatch") (fun () ->
      ignore (Infra.Network.graph_without_cables net ~dead:[| true |]))

let test_endpoint_latitudes_excludes_isolated () =
  let net = mini_network () in
  Alcotest.(check int) "4 cable-bearing nodes" 4
    (List.length (Infra.Network.endpoint_latitudes net))

let test_one_hop_endpoints () =
  let net = mini_network () in
  (* Threshold 40: node 0 (lat 10) has the trunk to nodes 2/3 (lat >= 50). *)
  Alcotest.(check (list int)) "node 0 is one-hop" [ 0 ]
    (Infra.Network.one_hop_endpoints net ~threshold:40.0)

let test_network_repeater_stats () =
  let net = mini_network () in
  (* south: 700 km -> 4; north: 900 -> 5; trunk: 6000 -> 39. *)
  check_close 1e-6 "mean repeaters" (48.0 /. 3.0)
    (Infra.Network.mean_repeaters_per_cable net ~spacing_km:150.0);
  Alcotest.(check int) "none unrepeatered" 0
    (Infra.Network.cables_without_repeaters net ~spacing_km:150.0)

(* --- Exposure --- *)

let test_exposure_positive_for_long_cable () =
  let net = mini_network () in
  let storm = Gic.Disturbance.storm_of_dst (-1200.0) in
  let e = Infra.Exposure.of_cable ~storm ~network:net (Infra.Network.cable net 2) in
  Alcotest.(check bool) "positive GIC" true (e.Infra.Exposure.peak_gic_a > 0.0)

let test_exposure_short_cable_zero () =
  let n id lat lon = { Infra.Network.id; name = "x"; country = "X"; pos = coord lat lon } in
  let nodes = [ n 0 50.0 0.0; n 1 50.0 0.5 ] in
  let cable =
    Infra.Cable.make ~id:0 ~name:"short" ~kind:Infra.Cable.Submarine
      ~landings:[ (0, coord 50.0 0.0); (1, coord 50.0 0.5) ] ()
  in
  let net = Infra.Network.create ~name:"s" ~nodes ~cables:[ cable ] in
  let storm = Gic.Disturbance.storm_of_dst (-1200.0) in
  let e = Infra.Exposure.of_cable ~storm ~network:net (Infra.Network.cable net 0) in
  check_close 1e-9 "ungrounded -> no GIC" 0.0 e.Infra.Exposure.peak_gic_a

let test_exposure_failure_probability_properties () =
  let net = mini_network () in
  let storm = Gic.Disturbance.storm_of_dst (-1200.0) in
  let e = Infra.Exposure.of_cable ~storm ~network:net (Infra.Network.cable net 2) in
  let p = Infra.Exposure.failure_probability e in
  Alcotest.(check bool) "in [0, 1]" true (p >= 0.0 && p <= 1.0);
  let p_soft = Infra.Exposure.failure_probability ~scale_a:1000.0 e in
  Alcotest.(check bool) "larger scale, lower probability" true (p_soft < p)

let test_exposure_storm_monotone () =
  let net = mini_network () in
  let weak = Gic.Disturbance.storm_of_dst (-100.0) in
  let strong = Gic.Disturbance.storm_of_dst (-1200.0) in
  let c = Infra.Network.cable net 2 in
  let ew = Infra.Exposure.of_cable ~storm:weak ~network:net c in
  let es = Infra.Exposure.of_cable ~storm:strong ~network:net c in
  Alcotest.(check bool) "stronger storm, more GIC" true
    (es.Infra.Exposure.peak_gic_a > ew.Infra.Exposure.peak_gic_a)

let test_network_exposures_indexed () =
  let net = mini_network () in
  let storm = Gic.Disturbance.storm_of_dst (-589.0) in
  let exposures = Infra.Exposure.network_exposures ~storm net in
  Alcotest.(check int) "one per cable" 3 (Array.length exposures)

(* [f ()] and the cable evaluations it ran, from [gic.exposure_evals]. *)
let evals_during f =
  let evals () =
    match Obs.Metrics.find (Obs.Metrics.snapshot ()) "gic.exposure_evals" with
    | Some (Obs.Metrics.Counter n) -> n
    | _ -> 0
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let before = evals () in
  let v = f () in
  (v, evals () - before)

let test_network_exposures_cache_keys () =
  let net = mini_network () in
  let m = Infra.Network.nb_cables net in
  let storm = Gic.Disturbance.storm_of_dst (-611.0) in
  let exposures ?(storm = storm) net () = Infra.Exposure.network_exposures ~storm net in
  let first, cold = evals_during (exposures net) in
  Alcotest.(check int) "cold key evaluates every cable" m cold;
  let fresh =
    Array.init m (fun i -> Infra.Exposure.of_cable ~storm ~network:net (Infra.Network.cable net i))
  in
  Alcotest.(check bool) "equal to a fresh computation" true (first = fresh);
  (* The caller owns the returned array: a write must not reach the cache. *)
  let kept = Array.copy first in
  first.(0) <- { Infra.Exposure.peak_gic_a = 1e9 };
  let again, warm = evals_during (exposures net) in
  Alcotest.(check int) "same key evaluates nothing" 0 warm;
  Alcotest.(check bool) "same values" true (again = kept);
  let misses name f = Alcotest.(check int) name m (snd (evals_during f)) in
  misses "other Dst" (exposures ~storm:(Gic.Disturbance.storm_of_dst (-612.0)) net);
  let twin = mini_network () in
  let twin_values, twin_evals = evals_during (exposures twin) in
  Alcotest.(check int) "equal network, distinct value" m twin_evals;
  Alcotest.(check bool) "twin values" true (twin_values = kept)

let test_network_exposures_cache_bound () =
  let net = mini_network () in
  let cap = Infra.Exposure.cache_capacity in
  let storms =
    List.init (3 * cap) (fun i -> Gic.Disturbance.storm_of_dst (-700.0 -. float_of_int i))
  in
  List.iter (fun storm -> ignore (Infra.Exposure.network_exposures ~storm net)) storms;
  (* Newest first: the kept entries hit (no evaluation); once one misses,
     every older key was evicted long ago. *)
  let hits =
    List.fold_left
      (fun acc storm ->
        let _, evals = evals_during (fun () -> Infra.Exposure.network_exposures ~storm net) in
        if evals = 0 then acc + 1 else acc)
      0 (List.rev storms)
  in
  Alcotest.(check int) "only the newest keys kept" cap hits

(* --- QCheck --- *)

let prop_repeater_count_monotone_in_length =
  QCheck.Test.make ~name:"repeater count monotone in length" ~count:200
    QCheck.(pair (float_range 1.0 20000.0) (float_range 1.0 20000.0))
    (fun (l1, l2) ->
      let lo = Float.min l1 l2 and hi = Float.max l1 l2 in
      Infra.Repeater.count_for_length ~spacing_km:100.0 ~length_km:lo
      <= Infra.Repeater.count_for_length ~spacing_km:100.0 ~length_km:hi)

let prop_repeater_count_antitone_in_spacing =
  QCheck.Test.make ~name:"repeater count antitone in spacing" ~count:200
    QCheck.(pair (float_range 30.0 200.0) (float_range 30.0 200.0))
    (fun (s1, s2) ->
      let lo = Float.min s1 s2 and hi = Float.max s1 s2 in
      Infra.Repeater.count_for_length ~spacing_km:hi ~length_km:8000.0
      <= Infra.Repeater.count_for_length ~spacing_km:lo ~length_km:8000.0)

(* Spacings log-uniform over 1e-300 .. 1e6 km: below ~1e-15 km the
   ratio length / spacing passes max_int, where the count must saturate
   rather than wrap to a smaller number. *)
let prop_repeater_count_antitone_down_to_tiny_spacing =
  QCheck.Test.make ~name:"repeater count antitone in spacing, 1e-300 to 1e6 km"
    ~count:500
    QCheck.(triple (float_range (-300.0) 6.0) (float_range (-300.0) 6.0)
              (float_range 1.0 30000.0))
    (fun (e1, e2, length_km) ->
      let lo = 10.0 ** Float.min e1 e2 and hi = 10.0 ** Float.max e1 e2 in
      Infra.Repeater.count_for_length ~spacing_km:hi ~length_km
      <= Infra.Repeater.count_for_length ~spacing_km:lo ~length_km)

let prop_grounding_sorted_and_bounded =
  QCheck.Test.make ~name:"grounding chainages sorted within cable" ~count:200
    (QCheck.float_range 50.0 30000.0)
    (fun length_km ->
      let ch = Infra.Grounding.chainages ~length_km () in
      let sorted = List.sort Float.compare ch in
      ch = sorted
      && List.for_all (fun d -> d >= 0.0 && d <= length_km) ch
      && List.hd ch = 0.0)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_repeater_count_monotone_in_length; prop_repeater_count_antitone_in_spacing;
      prop_repeater_count_antitone_down_to_tiny_spacing; prop_grounding_sorted_and_bounded ]

let () =
  Alcotest.run "infra"
    [
      ( "repeater",
        [ Alcotest.test_case "count basics" `Quick test_repeater_count_basics;
          Alcotest.test_case "9000 km anchor" `Quick test_repeater_count_9000km_anchor;
          Alcotest.test_case "validation" `Quick test_repeater_count_validation;
          Alcotest.test_case "paper spacings" `Quick test_paper_spacings ] );
      ( "power_feed",
        [ Alcotest.test_case "11 kV anchor" `Quick test_power_budget_9000km_anchor;
          Alcotest.test_case "monotone" `Quick test_power_budget_monotone;
          Alcotest.test_case "validation" `Quick test_power_budget_validation;
          Alcotest.test_case "dual-end feasibility" `Quick test_dual_end_feasibility;
          Alcotest.test_case "max span" `Quick test_max_span ] );
      ( "cable",
        [ Alcotest.test_case "make defaults" `Quick test_cable_make_defaults;
          Alcotest.test_case "stated length raised" `Quick test_cable_stated_length_raised;
          Alcotest.test_case "validation" `Quick test_cable_validation;
          Alcotest.test_case "risk tier" `Quick test_cable_risk_tier;
          Alcotest.test_case "repeaters from stated length" `Quick
            test_cable_repeater_count_uses_stated_length;
          Alcotest.test_case "segment lengths" `Quick test_segment_lengths_sum ] );
      ( "grounding",
        [ Alcotest.test_case "short cables" `Quick test_grounding_short_cables;
          Alcotest.test_case "endpoints and intervals" `Quick
            test_grounding_endpoints_and_intervals;
          Alcotest.test_case "validation" `Quick test_grounding_validation ] );
      ( "network",
        [ Alcotest.test_case "create validation" `Quick test_network_create_validation;
          Alcotest.test_case "accessors" `Quick test_network_accessors;
          Alcotest.test_case "to_graph" `Quick test_network_to_graph;
          Alcotest.test_case "graph_without_cables" `Quick test_network_graph_without_cables;
          Alcotest.test_case "dead array mismatch" `Quick test_network_dead_array_mismatch;
          Alcotest.test_case "endpoint latitudes" `Quick
            test_endpoint_latitudes_excludes_isolated;
          Alcotest.test_case "one-hop endpoints" `Quick test_one_hop_endpoints;
          Alcotest.test_case "repeater stats" `Quick test_network_repeater_stats ] );
      ( "exposure",
        [ Alcotest.test_case "positive for long cable" `Quick
            test_exposure_positive_for_long_cable;
          Alcotest.test_case "short cable zero" `Quick test_exposure_short_cable_zero;
          Alcotest.test_case "failure probability" `Quick
            test_exposure_failure_probability_properties;
          Alcotest.test_case "storm monotone" `Quick test_exposure_storm_monotone;
          Alcotest.test_case "indexed exposures" `Quick test_network_exposures_indexed;
          Alcotest.test_case "cache keys" `Quick test_network_exposures_cache_keys;
          Alcotest.test_case "cache bound" `Quick test_network_exposures_cache_bound ] );
      ("properties", qcheck_tests);
    ]
