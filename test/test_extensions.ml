(* Tests for the model extensions: power-grid coupling, traffic shifts,
   recovery, resilience testing of distributed services, and the
   sensitivity ablations. *)

open Stormsim

let submarine = lazy (Datasets.Submarine.build ())
let check_close eps = Alcotest.(check (float eps))

(* --- Powergrid --- *)

let test_regions_cover_dataset_countries () =
  (* Every country appearing in the submarine dataset must belong to a
     grid region. *)
  let net = Lazy.force submarine in
  let missing = Hashtbl.create 8 in
  for i = 0 to Infra.Network.nb_nodes net - 1 do
    let c = (Infra.Network.node net i).Infra.Network.country in
    if Powergrid.region_of_country c = None then Hashtbl.replace missing c ()
  done;
  let missing = Hashtbl.fold (fun c () acc -> c :: acc) missing [] in
  Alcotest.(check (list string)) "no uncovered countries" [] (List.sort compare missing)

let test_grid_failure_latitude_ordering () =
  let find name = List.find (fun (r : Powergrid.region) -> r.Powergrid.name = name) Powergrid.world_regions in
  let p_nordic = Powergrid.failure_probability (find "Nordic") ~dst_nt:(-589.0) in
  let p_sea = Powergrid.failure_probability (find "Southeast Asia") ~dst_nt:(-589.0) in
  Alcotest.(check bool) "nordic >> southeast asia" true (p_nordic > 3.0 *. p_sea)

let test_quebec_1989_anchor () =
  (* The 1989 storm collapsed the (high-latitude, high-GIC) Canadian grid. *)
  let canada =
    List.find (fun (r : Powergrid.region) -> r.Powergrid.name = "Canada") Powergrid.world_regions
  in
  let p = Powergrid.failure_probability canada ~dst_nt:(-589.0) in
  Alcotest.(check bool) (Printf.sprintf "P %.2f >= 0.8" p) true (p >= 0.8)

let test_grid_failure_monotone_in_storm () =
  let region = List.hd Powergrid.world_regions in
  Alcotest.(check bool) "stronger storm, likelier collapse" true
    (Powergrid.failure_probability region ~dst_nt:(-1200.0)
    >= Powergrid.failure_probability region ~dst_nt:(-100.0))

let test_outage_duration_scales () =
  let rng = Rng.create 5 in
  let region = List.hd Powergrid.world_regions in
  let sample dst =
    Stats.mean (List.init 200 (fun _ -> Powergrid.outage_days rng region ~dst_nt:dst))
  in
  let weak = sample (-200.0) and strong = sample (-1200.0) in
  Alcotest.(check bool) "weak storms: days" true (weak < 10.0);
  Alcotest.(check bool) "carrington: weeks-months" true (strong > 20.0)

let test_coupled_simulation_amplifies () =
  let net = Lazy.force submarine in
  let r =
    Powergrid.simulate ~trials:10 ~network:net ~model:Failure_model.s1 ~dst_nt:(-1200.0) ()
  in
  Alcotest.(check bool) "grid adds darkness" true
    (r.Powergrid.nodes_dark_pct >= r.Powergrid.nodes_cable_dark_pct);
  Alcotest.(check bool) "amplification > 1.5" true (r.Powergrid.amplification > 1.5);
  Alcotest.(check bool) "high-latitude grids down" true
    (List.mem "Nordic" r.Powergrid.regions_down || List.mem "Canada" r.Powergrid.regions_down)

let test_coupled_simulation_mild_storm () =
  let net = Lazy.force submarine in
  let r =
    Powergrid.simulate ~trials:10 ~network:net
      ~model:(Failure_model.uniform 0.0001) ~dst_nt:(-100.0) ()
  in
  Alcotest.(check bool) "equatorial grids stay up" true
    (not (List.mem "Southeast Asia" r.Powergrid.regions_down));
  Alcotest.(check bool) "little darkness" true (r.Powergrid.nodes_dark_pct < 30.0)

(* Bit patterns of every float field and the regions down, for two
   inputs: the per-trial sums must accumulate in trial order, so not
   even the last bit may move. *)
let powergrid_pins =
  [ ( "s1 at -1200 nT",
      (10, 31, Failure_model.s1, -1200.0),
      [ 0x403e15c9882b9312L; 0x4038a64412fa6e28L; 0x40513f892e00699eL;
        0x40527472b1d16129L; 0x4007f549ba8a1597L ],
      [ "Canada"; "Central America"; "Continental Europe"; "ERCOT-Texas"; "East Asia";
        "Middle East"; "Nordic"; "Oceania"; "Russia-CIS"; "UK-Ireland"; "US-Eastern";
        "US-Western" ] );
    ( "uniform 0.05 at -589 nT",
      (12, 7, Failure_model.uniform 0.05, -589.0),
      [ 0x404260ae4c415c99L; 0x403ce3538ba7b5bdL; 0x404780a73a8428fcL;
        0x404ffcaa410c7224L; 0x4001b766b59db1b0L ],
      [ "Canada"; "Continental Europe"; "Nordic"; "Russia-CIS"; "UK-Ireland";
        "US-Eastern"; "US-Western" ] ) ]

let test_coupled_simulation_pinned () =
  let net = Lazy.force submarine in
  List.iter
    (fun (name, (trials, seed, model, dst_nt), bits, regions) ->
      let r = Powergrid.simulate ~trials ~seed ~network:net ~model ~dst_nt () in
      Alcotest.(check (list int64))
        (name ^ ": float bits")
        bits
        (List.map Int64.bits_of_float
           [ r.Powergrid.cables_failed_pct; r.Powergrid.nodes_cable_dark_pct;
             r.Powergrid.nodes_grid_dark_pct; r.Powergrid.nodes_dark_pct;
             r.Powergrid.amplification ]);
      Alcotest.(check (list string)) (name ^ ": regions down") regions
        r.Powergrid.regions_down)
    powergrid_pins

(* --- Traffic --- *)

let test_gravity_demands_normalized () =
  let d = Traffic.gravity_demands () in
  check_close 1e-6 "total 100" 100.0
    (List.fold_left (fun a (x : Traffic.demand) -> a +. x.Traffic.volume) 0.0 d);
  Alcotest.(check int) "15 continent pairs" 15 (List.length d)

let test_healthy_routing_delivers_everything () =
  let net = Lazy.force submarine in
  let r = Traffic.route ~network:net ~demands:(Traffic.gravity_demands ()) () in
  check_close 1e-6 "all delivered" 100.0 r.Traffic.delivered_pct;
  Alcotest.(check bool) "loads positive" true (r.Traffic.max_cable_load > 0.0)

let test_storm_shift_reduces_delivery () =
  let net = Lazy.force submarine in
  let base, after = Traffic.storm_shift ~trials:5 ~network:net ~model:Failure_model.s1 () in
  Alcotest.(check bool) "baseline complete" true (base.Traffic.delivered_pct > 99.0);
  Alcotest.(check bool) "S1 cuts delivery" true
    (after.Traffic.delivered_pct < base.Traffic.delivered_pct -. 10.0)

let test_storm_shift_mild_keeps_delivery () =
  let net = Lazy.force submarine in
  let _, after =
    Traffic.storm_shift ~trials:5 ~network:net ~model:(Failure_model.uniform 0.001) ()
  in
  Alcotest.(check bool) "mild storms deliver" true (after.Traffic.delivered_pct > 80.0)

(* --- Recovery --- *)

let test_plan_empty () =
  let net = Lazy.force submarine in
  let dead = Array.make (Infra.Network.nb_cables net) false in
  let tl = Recovery.plan ~network:net ~dead () in
  check_close 1e-9 "nothing to do" 0.0 tl.Recovery.days_to_full

let test_plan_single_cable () =
  let net = Lazy.force submarine in
  let dead = Array.make (Infra.Network.nb_cables net) false in
  dead.(0) <- true;
  let tl = Recovery.plan ~network:net ~dead () in
  Alcotest.(check bool) "one job takes >= base days" true
    (tl.Recovery.days_to_full >= Recovery.default_params.Recovery.base_repair_days);
  check_close 1e-9 "50% = full for one job" tl.Recovery.days_to_full tl.Recovery.days_to_50_pct

let test_plan_ordering_and_monotone_series () =
  let net = Lazy.force submarine in
  let dead =
    Array.init (Infra.Network.nb_cables net) (fun i -> i mod 3 = 0)
  in
  let tl = Recovery.plan ~network:net ~dead () in
  Alcotest.(check bool) "50 <= 90 <= full" true
    (tl.Recovery.days_to_50_pct <= tl.Recovery.days_to_90_pct
    && tl.Recovery.days_to_90_pct <= tl.Recovery.days_to_full);
  let rec monotone = function
    | (d1, f1) :: ((d2, f2) :: _ as rest) -> d1 <= d2 && f1 <= f2 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "series monotone" true (monotone tl.Recovery.series)

let test_more_ships_faster () =
  let net = Lazy.force submarine in
  let dead = Array.init (Infra.Network.nb_cables net) (fun i -> i mod 2 = 0) in
  let slow =
    Recovery.plan ~params:{ Recovery.default_params with Recovery.ships = 10 } ~network:net
      ~dead ()
  in
  let fast =
    Recovery.plan ~params:{ Recovery.default_params with Recovery.ships = 120 } ~network:net
      ~dead ()
  in
  Alcotest.(check bool) "fleet size matters" true
    (fast.Recovery.days_to_full < slow.Recovery.days_to_full);
  check_close 1.0 "same total work" slow.Recovery.total_ship_days fast.Recovery.total_ship_days

let test_recovery_months_for_s1 () =
  (* The paper's abstract: outages "lasting several months". *)
  let net = Lazy.force submarine in
  let tl, dead = Recovery.storm_recovery ~trials:3 ~network:net ~model:Failure_model.s1 () in
  Alcotest.(check bool) "many cables dead" true (dead > 80.0);
  Alcotest.(check bool)
    (Printf.sprintf "full restoration %.0f d in months-year range" tl.Recovery.days_to_full)
    true
    (tl.Recovery.days_to_full > 60.0 && tl.Recovery.days_to_full < 1500.0)

let test_cost_model () =
  check_close 1e-3 "7B/day at full outage" 7e9
    (Recovery.us_outage_cost_usd ~dark_fraction:1.0 ~days:1.0);
  check_close 1e-3 "scales" (7e9 *. 0.5 *. 10.0)
    (Recovery.us_outage_cost_usd ~dark_fraction:0.5 ~days:10.0)

let test_plan_validation () =
  let net = Lazy.force submarine in
  Alcotest.check_raises "size mismatch" (Invalid_argument "Recovery.plan: dead array size mismatch")
    (fun () -> ignore (Recovery.plan ~network:net ~dead:[| true |] ()))

(* --- Resilience_test --- *)

let test_suite_runs () =
  let net = Lazy.force submarine in
  let results = Resilience_test.run_suite ~network:net () in
  Alcotest.(check int) "all services" (List.length Resilience_test.sample_services)
    (List.length results);
  List.iter
    (fun (a : Resilience_test.availability) ->
      Alcotest.(check bool) "read >= write" true
        (a.Resilience_test.read_pct >= a.Resilience_test.write_pct -. 1e-9);
      Alcotest.(check bool) "percent range" true
        (a.Resilience_test.read_pct >= 0.0 && a.Resilience_test.read_pct <= 100.0))
    results

let test_anycast_beats_majority_db () =
  (* Quorum-1 anycast must be at least as available as a majority-quorum
     database on the same kind of placement. *)
  let net = Lazy.force submarine in
  let by_name name =
    List.find
      (fun (a : Resilience_test.availability) ->
        a.Resilience_test.service.Resilience_test.name = name)
      (Resilience_test.run_suite ~network:net ())
  in
  Alcotest.(check bool) "anycast read >= db write" true
    ((by_name "anycast-cdn").Resilience_test.read_pct
    >= (by_name "global-majority-db").Resilience_test.write_pct)

let test_availability_better_under_mild_state () =
  let net = Lazy.force submarine in
  let svc = List.hd Resilience_test.sample_services in
  let harsh = Resilience_test.evaluate ~state:Failure_model.s1 ~network:net svc in
  let mild =
    Resilience_test.evaluate ~state:(Failure_model.uniform 0.0001) ~network:net svc
  in
  Alcotest.(check bool) "mild >= harsh" true
    (mild.Resilience_test.read_pct >= harsh.Resilience_test.read_pct)

let test_quorum_validation () =
  let net = Lazy.force submarine in
  let bad = { Resilience_test.name = "bad"; replicas = [ "London" ]; write_quorum = 2; read_quorum = 1 } in
  Alcotest.check_raises "quorum too large"
    (Invalid_argument "Resilience_test.evaluate: bad write quorum") (fun () ->
      ignore (Resilience_test.evaluate ~network:net bad))

let test_placement_gain_positive_for_spreading () =
  let net = Lazy.force submarine in
  let concentrated =
    { Resilience_test.name = "conc"; replicas = [ "London"; "Amsterdam"; "Paris" ];
      write_quorum = 2; read_quorum = 1 }
  in
  let spread =
    { Resilience_test.name = "spread"; replicas = [ "Singapore"; "Sao Paulo"; "Mumbai" ];
      write_quorum = 2; read_quorum = 1 }
  in
  Alcotest.(check bool) "low-latitude placement helps" true
    (Resilience_test.placement_gain ~network:net ~before:concentrated ~after:spread >= 0.0)

(* --- Sensitivity --- *)

let test_threshold_sweep_monotone () =
  (* Raising the vulnerable-latitude boundary shrinks the mid/high tiers,
     so failures decrease. *)
  let net = Lazy.force submarine in
  let rows = Sensitivity.threshold_sweep ~trials:5 ~network:net () in
  Alcotest.(check int) "5 thresholds" 5 (List.length rows);
  let first = snd (List.hd rows) and last = snd (List.nth rows (List.length rows - 1)) in
  Alcotest.(check bool) "30 deg worse than 50 deg" true (first > last)

let test_geomag_ablation_direction () =
  (* Geomagnetic tiers pull North Atlantic cables up a tier: failures grow. *)
  let net = Lazy.force submarine in
  let rows = Sensitivity.geographic_vs_geomagnetic ~trials:5 ~network:net () in
  List.iter
    (fun (state, geo, gm) ->
      Alcotest.(check bool) (state ^ ": geomag >= geographic") true (gm >= geo -. 1.0))
    rows

let test_spacing_sweep_monotone () =
  let net = Lazy.force submarine in
  let rows =
    Sensitivity.spacing_sweep ~trials:5 ~network:net ~model:(Failure_model.uniform 0.01) ()
  in
  let first = snd (List.hd rows) and last = snd (List.nth rows (List.length rows - 1)) in
  Alcotest.(check bool) "tighter spacing, more failures" true (first > last)

let test_seed_sensitivity_small () =
  (* Dataset-generation noise must be small relative to the signal. *)
  let mean, std = Sensitivity.seed_sensitivity ~seeds:[ 1; 2; 3 ] ~trials:5 ~probability:0.01 () in
  Alcotest.(check bool) (Printf.sprintf "mean %.1f in [8, 20]" mean) true
    (mean > 8.0 && mean < 20.0);
  Alcotest.(check bool) (Printf.sprintf "std %.2f < 3" std) true (std < 3.0)

let test_scale_a_sweep_monotone () =
  let net = Lazy.force submarine in
  let rows = Sensitivity.scale_a_sweep ~network:net ~dst_nt:(-1200.0) () in
  let rec decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-9 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "tougher repeaters, fewer failures" true (decreasing rows)

let exposure_evals () =
  match Obs.Metrics.find (Obs.Metrics.snapshot ()) "gic.exposure_evals" with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

let test_scale_a_sweep_evaluates_each_cable_once () =
  let net = Lazy.force submarine in
  let m = Infra.Network.nb_cables net in
  (* A Dst no other test compiles, so the first scale starts cold. *)
  let dst_nt = -1111.0 in
  let rows =
    Obs.enable ();
    Fun.protect ~finally:Obs.disable @@ fun () ->
    let before = exposure_evals () in
    let rows = Sensitivity.scale_a_sweep ~network:net ~dst_nt () in
    Alcotest.(check int) "six scales, one exposure pass" m (exposure_evals () - before);
    rows
  in
  let storm = Gic.Disturbance.storm_of_dst dst_nt in
  let fresh =
    Array.init m (fun i -> Infra.Exposure.of_cable ~storm ~network:net (Infra.Network.cable net i))
  in
  Alcotest.(check bool) "cached exposures = fresh" true
    (Infra.Exposure.network_exposures ~storm net = fresh);
  (* Plan.compile + expected_cables_failed_pct, from the fresh exposures. *)
  List.iter
    (fun (scale_a, pct) ->
      let sum = ref 0.0 in
      for c = 0 to m - 1 do
        let per_repeater = Infra.Exposure.failure_probability ~scale_a fresh.(c) in
        sum :=
          !sum
          +. Failure_model.cable_death_prob ~per_repeater ~spacing_km:150.0
               (Infra.Network.cable net c)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "scale %.0f A bit-equal" scale_a)
        true
        (Float.equal pct (100.0 *. !sum /. float_of_int m)))
    rows

(* --- Segment-level ablation --- *)

let test_segment_trial_shape () =
  let net = Lazy.force submarine in
  let plan = Plan.compile ~network:net ~model:(Failure_model.uniform 0.01) () in
  let rng = Rng.create 3 in
  let hops = Segment_model.trial_segments rng ~plan in
  let expected_hops = ref 0 in
  for c = 0 to Infra.Network.nb_cables net - 1 do
    expected_hops := !expected_hops + Infra.Cable.hop_count (Infra.Network.cable net c)
  done;
  Alcotest.(check int) "one flag per hop" !expected_hops (Array.length hops)

let test_segment_p0_p1 () =
  let net = Lazy.force submarine in
  let rng = Rng.create 4 in
  let all_alive =
    Segment_model.trial_segments rng
      ~plan:(Plan.compile ~network:net ~model:(Failure_model.uniform 0.0) ())
  in
  Alcotest.(check bool) "p=0 kills nothing" true (Array.for_all not all_alive);
  Alcotest.(check (float 1e-9)) "no unreachable" 0.0
    (Segment_model.nodes_unreachable_pct_segments net all_alive)

let test_segment_less_pessimistic () =
  (* The headline of the ablation: hop-level failures isolate far fewer
     nodes than whole-cable failures. *)
  let net = Lazy.force submarine in
  let c = Segment_model.compare_models ~trials:5 ~network:net ~model:Failure_model.s1 () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f%% < %.1f%%" c.Segment_model.segment_level_nodes_pct
       c.Segment_model.cable_level_nodes_pct)
    true
    (c.Segment_model.segment_level_nodes_pct
    < 0.6 *. c.Segment_model.cable_level_nodes_pct);
  Alcotest.(check bool) "hops fail less often than cables" true
    (c.Segment_model.segment_level_segments_pct < c.Segment_model.cable_level_cables_pct)

(* --- Capacity --- *)

let test_cable_capacity_tiers () =
  let mk len =
    Infra.Cable.make ~id:0 ~name:"c" ~kind:Infra.Cable.Submarine
      ~landings:[ (0, Geo.Coord.make ~lat:0.0 ~lon:0.0); (1, Geo.Coord.make ~lat:0.0 ~lon:1.0) ]
      ~length_km:len ()
  in
  Alcotest.(check (float 1e-9)) "festoon 8 pairs" 120.0 (Capacity.cable_capacity_tbps (mk 500.0));
  Alcotest.(check (float 1e-9)) "regional 6 pairs" 90.0 (Capacity.cable_capacity_tbps (mk 5000.0));
  Alcotest.(check (float 1e-9)) "transoceanic 4 pairs" 60.0
    (Capacity.cable_capacity_tbps (mk 12000.0))

let test_network_capacity_positive () =
  let net = Lazy.force submarine in
  let c = Capacity.network_capacity_tbps net in
  Alcotest.(check bool) (Printf.sprintf "%.0f Tbps plausible" c) true
    (c > 20000.0 && c < 100000.0)

let test_corridor_atlantic_collapses_under_s1 () =
  let net = Lazy.force submarine in
  let r =
    Capacity.analyze_corridor ~trials:5 ~network:net ~model:Failure_model.s1
      Capacity.atlantic
  in
  Alcotest.(check bool) "healthy capacity large" true (r.Capacity.healthy_tbps > 500.0);
  Alcotest.(check bool)
    (Printf.sprintf "surviving %.0f%% < 30%%" r.Capacity.surviving_pct)
    true (r.Capacity.surviving_pct < 30.0);
  Alcotest.(check bool) "cut names transatlantic systems" true
    (List.exists (fun n -> n = "TAT-14" || n = "MAREA" || n = "AC-2 Yellow")
       r.Capacity.min_cut_cables)

let test_corridor_brazil_beats_atlantic () =
  let net = Lazy.force submarine in
  let atlantic =
    Capacity.analyze_corridor ~trials:5 ~network:net ~model:Failure_model.s1
      Capacity.atlantic
  in
  let brazil =
    Capacity.analyze_corridor ~trials:5 ~network:net ~model:Failure_model.s1
      Capacity.brazil_europe
  in
  Alcotest.(check bool) "brazil survives better" true
    (brazil.Capacity.surviving_pct > atlantic.Capacity.surviving_pct)

let test_corridor_empty_side () =
  let net = Lazy.force submarine in
  let r =
    Capacity.analyze_corridor ~trials:2 ~network:net ~model:Failure_model.s1
      { Capacity.name = "nowhere"; from_countries = [ "Narnia" ]; to_countries = [ "Brazil" ] }
  in
  Alcotest.(check (float 1e-9)) "zero healthy" 0.0 r.Capacity.healthy_tbps

let test_standard_report_complete () =
  let net = Lazy.force submarine in
  let rs = Capacity.standard_report ~trials:3 ~network:net ~model:Failure_model.s2 () in
  Alcotest.(check int) "four corridors" 4 (List.length rs);
  List.iter
    (fun (r : Capacity.corridor_report) ->
      Alcotest.(check bool) "expected <= healthy" true
        (r.Capacity.expected_tbps <= r.Capacity.healthy_tbps +. 1e-6))
    rs

(* The oracle for [Capacity.flow_between]: the max-flow it computed
   before it laid out the arcs straight from the cable list, over the
   persistent graph of the surviving cables, with an edge -> cable
   table rebuilt under the same keep predicate. *)
let graph_flow net ~dead ~sources ~sinks =
  let g = Infra.Network.graph_surviving net ~dead in
  let edge_cable = Hashtbl.create 1024 in
  let next = ref 0 in
  for c = 0 to Infra.Network.nb_cables net - 1 do
    if not (dead c) then
      for _ = 1 to Infra.Cable.hop_count (Infra.Network.cable net c) do
        Hashtbl.replace edge_cable !next c;
        incr next
      done
  done;
  let capacity e =
    match Hashtbl.find_opt edge_cable e with
    | Some c -> Capacity.cable_capacity_tbps (Infra.Network.cable net c)
    | None -> 0.0
  in
  Netgraph.Flow.max_flow_multi g ~capacity ~sources ~sinks

let prop_flow_between_matches_graph =
  let corridors =
    [| Capacity.atlantic; Capacity.brazil_europe; Capacity.pacific; Capacity.asia_europe |]
  in
  QCheck.Test.make ~name:"flow_between = max_flow_multi over graph_surviving" ~count:60
    QCheck.(triple (int_bound 3) (float_range 0.0 1.0) int)
    (fun (k, share_dead, seed) ->
      let net = Lazy.force submarine in
      let sources, sinks = Capacity.terminals ~network:net corridors.(k) in
      let st = Random.State.make [| seed |] in
      let dead_arr =
        Array.init (Infra.Network.nb_cables net) (fun _ -> Random.State.float st 1.0 < share_dead)
      in
      let dead c = dead_arr.(c) in
      Float.equal
        (Capacity.flow_between net ~dead ~sources ~sinks)
        (graph_flow net ~dead ~sources ~sinks))

(* --- Shutdown decision & DNS reachability --- *)

let test_shutdown_decision_carrington () =
  let net = Lazy.force submarine in
  let d =
    Mitigation.shutdown_decision ~cme:Spaceweather.Cme.carrington_1859 ~network:net ()
  in
  Alcotest.(check bool) "storm window days-scale" true
    (d.Mitigation.storm_window_h > 12.0 && d.Mitigation.storm_window_h < 240.0);
  Alcotest.(check bool) "de-powering reduces failures" true
    (d.Mitigation.failure_fraction_off < d.Mitigation.failure_fraction_powered);
  Alcotest.(check bool) "downtimes positive" true
    (d.Mitigation.downtime_powered_days > 0.0 && d.Mitigation.downtime_off_days > 0.0)

let test_shutdown_decision_weak_storm_not_recommended () =
  (* For a storm too weak to damage repeaters, powering off only costs
     service. *)
  let net = Lazy.force submarine in
  let weak = Spaceweather.Cme.make ~speed_km_s:600.0 ~southward_b_nt:5.0 () in
  let d = Mitigation.shutdown_decision ~cme:weak ~network:net () in
  Alcotest.(check bool) "not recommended" false d.Mitigation.recommended

let test_dns_reachability_s1 () =
  let net = Lazy.force submarine in
  let dns = Datasets.Dns_roots.build () in
  let r = Systems.dns_reachability ~network:net dns in
  Alcotest.(check bool) "percent ranges" true
    (r.Systems.any_root_pct >= 0.0 && r.Systems.any_root_pct <= 100.0);
  Alcotest.(check bool) "any >= majority" true
    (r.Systems.any_root_pct >= r.Systems.majority_letters_pct);
  (* The big landmass partitions keep root service: a solid share of nodes
     still sees at least one instance. *)
  Alcotest.(check bool)
    (Printf.sprintf "any %.0f%% > 25%%" r.Systems.any_root_pct)
    true (r.Systems.any_root_pct > 25.0)

let test_dns_reachability_mild_state_near_full () =
  let net = Lazy.force submarine in
  let dns = Datasets.Dns_roots.build () in
  let r =
    Systems.dns_reachability ~state:(Failure_model.uniform 0.00001) ~network:net dns
  in
  Alcotest.(check bool) (Printf.sprintf "any %.0f%% ~ 100%%" r.Systems.any_root_pct) true
    (r.Systems.any_root_pct > 95.0);
  Alcotest.(check bool) "most letters visible" true (r.Systems.mean_letters > 10.0)

(* --- Event generator --- *)

let test_events_chronological_and_bounded () =
  let rng = Rng.create 9 in
  let evs = Spaceweather.Event_generator.generate ~rng ~start:2021.0 ~stop:2051.0 () in
  let rec sorted = function
    | (a : Spaceweather.Event_generator.event) :: (b :: _ as rest) ->
        a.Spaceweather.Event_generator.year <= b.Spaceweather.Event_generator.year
        && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted evs);
  List.iter
    (fun (e : Spaceweather.Event_generator.event) ->
      Alcotest.(check bool) "in window" true
        (e.Spaceweather.Event_generator.year >= 2021.0
        && e.Spaceweather.Event_generator.year < 2051.0);
      Alcotest.(check bool) "at least intense" true
        (e.Spaceweather.Event_generator.dst_nt <= -100.0))
    evs

let test_events_rate_plausible () =
  (* The calibrated tail gives roughly 0.5-1.5 intense+ events/year after
     modulation during the current epoch. *)
  let master = Rng.create 11 in
  let counts =
    List.init 30 (fun _ ->
        let rng = Rng.split master in
        List.length
          (Spaceweather.Event_generator.generate ~rng ~start:2021.0 ~stop:2031.0 ()))
  in
  let mean = Stats.mean (List.map float_of_int counts) in
  Alcotest.(check bool) (Printf.sprintf "mean %.1f in [3, 18] per decade" mean) true
    (mean > 3.0 && mean < 18.0)

let test_events_empty_window () =
  let rng = Rng.create 1 in
  Alcotest.(check (list reject)) "empty" []
    (List.map (fun _ -> ())
       (Spaceweather.Event_generator.generate ~rng ~start:2021.0 ~stop:2021.0 ()))

let test_events_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "inverted"
    (Invalid_argument "Event_generator.generate: stop < start") (fun () ->
      ignore (Spaceweather.Event_generator.generate ~rng ~start:2030.0 ~stop:2020.0 ()));
  Alcotest.check_raises "negative min_dst"
    (Invalid_argument "Event_generator.generate: min_dst must be positive") (fun () ->
      ignore
        (Spaceweather.Event_generator.generate ~min_dst:(-1.0) ~rng ~start:2020.0 ~stop:2030.0 ()))

let test_carrington_window_probability () =
  (* Current (Gleissberg-suppressed) decade sits below the long-run 12%. *)
  let p =
    Spaceweather.Event_generator.carrington_in_window ~trials:200 ~seed:13 ~start:2021.0
      ~stop:2031.0 ()
  in
  Alcotest.(check bool) (Printf.sprintf "P %.3f in [0.005, 0.15]" p) true
    (p > 0.005 && p < 0.15)

let test_worst_and_count () =
  let evs =
    [ { Spaceweather.Event_generator.year = 2022.0; dst_nt = -150.0;
        severity = Spaceweather.Dst.severity_of_dst (-150.0) };
      { Spaceweather.Event_generator.year = 2024.0; dst_nt = -900.0;
        severity = Spaceweather.Dst.severity_of_dst (-900.0) } ]
  in
  (match Spaceweather.Event_generator.worst evs with
  | Some w -> Alcotest.(check (float 1e-9)) "deepest" (-900.0) w.Spaceweather.Event_generator.dst_nt
  | None -> Alcotest.fail "no worst");
  Alcotest.(check bool) "empty worst" true (Spaceweather.Event_generator.worst [] = None)

let () =
  Alcotest.run "extensions"
    [
      ( "segment_model",
        [ Alcotest.test_case "trial shape" `Quick test_segment_trial_shape;
          Alcotest.test_case "p0 boundary" `Quick test_segment_p0_p1;
          Alcotest.test_case "less pessimistic" `Quick test_segment_less_pessimistic ] );
      ( "capacity",
        [ Alcotest.test_case "cable tiers" `Quick test_cable_capacity_tiers;
          Alcotest.test_case "network total" `Quick test_network_capacity_positive;
          Alcotest.test_case "atlantic collapses" `Quick
            test_corridor_atlantic_collapses_under_s1;
          Alcotest.test_case "brazil beats atlantic" `Quick test_corridor_brazil_beats_atlantic;
          Alcotest.test_case "empty side" `Quick test_corridor_empty_side;
          Alcotest.test_case "standard report" `Slow test_standard_report_complete;
          QCheck_alcotest.to_alcotest prop_flow_between_matches_graph ] );
      ( "shutdown_and_dns",
        [ Alcotest.test_case "carrington decision" `Quick test_shutdown_decision_carrington;
          Alcotest.test_case "weak storm not recommended" `Quick
            test_shutdown_decision_weak_storm_not_recommended;
          Alcotest.test_case "dns under S1" `Quick test_dns_reachability_s1;
          Alcotest.test_case "dns under mild state" `Quick
            test_dns_reachability_mild_state_near_full ] );
      ( "event_generator",
        [ Alcotest.test_case "chronological + bounded" `Quick
            test_events_chronological_and_bounded;
          Alcotest.test_case "rate plausible" `Quick test_events_rate_plausible;
          Alcotest.test_case "empty window" `Quick test_events_empty_window;
          Alcotest.test_case "validation" `Quick test_events_validation;
          Alcotest.test_case "carrington window" `Slow test_carrington_window_probability;
          Alcotest.test_case "worst and count" `Quick test_worst_and_count ] );
      ( "powergrid",
        [ Alcotest.test_case "regions cover countries" `Quick
            test_regions_cover_dataset_countries;
          Alcotest.test_case "latitude ordering" `Quick test_grid_failure_latitude_ordering;
          Alcotest.test_case "quebec 1989 anchor" `Quick test_quebec_1989_anchor;
          Alcotest.test_case "monotone in storm" `Quick test_grid_failure_monotone_in_storm;
          Alcotest.test_case "outage durations" `Quick test_outage_duration_scales;
          Alcotest.test_case "coupling amplifies" `Quick test_coupled_simulation_amplifies;
          Alcotest.test_case "mild storm" `Quick test_coupled_simulation_mild_storm;
          Alcotest.test_case "pinned outputs" `Quick test_coupled_simulation_pinned ] );
      ( "traffic",
        [ Alcotest.test_case "demands normalized" `Quick test_gravity_demands_normalized;
          Alcotest.test_case "healthy delivery" `Quick test_healthy_routing_delivers_everything;
          Alcotest.test_case "S1 cuts delivery" `Quick test_storm_shift_reduces_delivery;
          Alcotest.test_case "mild keeps delivery" `Quick test_storm_shift_mild_keeps_delivery ] );
      ( "recovery",
        [ Alcotest.test_case "empty plan" `Quick test_plan_empty;
          Alcotest.test_case "single cable" `Quick test_plan_single_cable;
          Alcotest.test_case "ordering + series" `Quick test_plan_ordering_and_monotone_series;
          Alcotest.test_case "fleet size" `Quick test_more_ships_faster;
          Alcotest.test_case "months for S1" `Quick test_recovery_months_for_s1;
          Alcotest.test_case "cost model" `Quick test_cost_model;
          Alcotest.test_case "validation" `Quick test_plan_validation ] );
      ( "resilience_test",
        [ Alcotest.test_case "suite runs" `Quick test_suite_runs;
          Alcotest.test_case "anycast vs majority" `Quick test_anycast_beats_majority_db;
          Alcotest.test_case "state ordering" `Quick test_availability_better_under_mild_state;
          Alcotest.test_case "quorum validation" `Quick test_quorum_validation;
          Alcotest.test_case "placement gain" `Quick test_placement_gain_positive_for_spreading ] );
      ( "sensitivity",
        [ Alcotest.test_case "threshold sweep" `Quick test_threshold_sweep_monotone;
          Alcotest.test_case "geomag direction" `Quick test_geomag_ablation_direction;
          Alcotest.test_case "spacing sweep" `Quick test_spacing_sweep_monotone;
          Alcotest.test_case "seed sensitivity" `Slow test_seed_sensitivity_small;
          Alcotest.test_case "scale sweep" `Quick test_scale_a_sweep_monotone;
          Alcotest.test_case "scale sweep, one exposure pass" `Quick
            test_scale_a_sweep_evaluates_each_cable_once ] );
    ]
