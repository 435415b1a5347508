(* Shutdown planning. *)

type shutdown_plan = {
  actionable_lead_h : float;
  cables_failed_on_pct : float;
  cables_failed_off_pct : float;
  benefit_pct : float;
}

let shutdown_plan ~cme ~network () =
  let dst = Spaceweather.Cme.expected_dst cme in
  let timeline = Spaceweather.Forecast.timeline cme in
  let on_model = Failure_model.Gic_physical { dst_nt = dst; scale_a = 30.0 } in
  (* De-powering scales the peak GIC by 0.8; equivalent to raising the
     damage scale by 1/0.8. *)
  let off_model = Failure_model.Gic_physical { dst_nt = dst; scale_a = 30.0 /. 0.8 } in
  let expected model =
    Montecarlo.expected_cables_failed_pct ~network ~spacing_km:150.0 ~model
  in
  let on_pct = expected on_model and off_pct = expected off_model in
  {
    actionable_lead_h = timeline.Spaceweather.Forecast.actionable_lead_h;
    cables_failed_on_pct = on_pct;
    cables_failed_off_pct = off_pct;
    benefit_pct = on_pct -. off_pct;
  }

type shutdown_decision = {
  storm_window_h : float;
  failure_fraction_powered : float;
  failure_fraction_off : float;
  downtime_powered_days : float;
  downtime_off_days : float;
  recommended : bool;
}

let shutdown_decision ~cme ~network () =
  let dst = Spaceweather.Cme.expected_dst cme in
  let profile = Gic.Time_series.default ~dst_min:dst in
  let storm_window_h = Gic.Time_series.duration_below profile ~dst_threshold:(-250.0) in
  let expected scale_a =
    Montecarlo.expected_cables_failed_pct ~network ~spacing_km:150.0
      ~model:(Failure_model.Gic_physical { dst_nt = dst; scale_a })
    /. 100.0
  in
  let f_on = expected 30.0 in
  let f_off = expected (30.0 /. 0.8) in
  (* Shortest-job-first fleet approximation: 90% of the cable count is
     restored after roughly 90% of the total ship-days divided by the
     fleet, because short jobs are front-loaded. *)
  let mean_job =
    let m = Infra.Network.nb_cables network in
    if m = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for c = 0 to m - 1 do
        let cable = Infra.Network.cable network c in
        let repeaters = float_of_int (Infra.Cable.repeater_count cable ~spacing_km:150.0) in
        sum :=
          !sum
          +. (Float.max 1.0 (repeaters /. 10.0) *. Recovery.default_params.Recovery.base_repair_days)
          +. (cable.Infra.Cable.length_km /. 1000.0
             *. Recovery.default_params.Recovery.transit_days_per_1000km)
      done;
      !sum /. float_of_int m
    end
  in
  let repair_days f =
    let dead = f *. float_of_int (Infra.Network.nb_cables network) in
    0.9 *. dead *. mean_job /. float_of_int Recovery.default_params.Recovery.ships
  in
  let downtime_powered_days = f_on *. repair_days f_on in
  (* Forecast uncertainty means a precautionary shutdown is at least a
     day long even when the model predicts a short severe window. *)
  let shutdown_days = Float.max 1.0 (storm_window_h /. 24.0) in
  let downtime_off_days = shutdown_days +. (f_off *. repair_days f_off) in
  {
    storm_window_h;
    failure_fraction_powered = f_on;
    failure_fraction_off = f_off;
    downtime_powered_days;
    downtime_off_days;
    recommended = downtime_off_days < downtime_powered_days;
  }

(* Topology augmentation. *)

type augmentation = {
  from_city : string;
  to_city : string;
  length_km : float;
  gain : float;
}

let candidate_links =
  [
    ("Fortaleza", "Lagos");
    ("Fortaleza", "Sines");
    ("Rio de Janeiro", "Cape Town");
    ("Miami", "Fortaleza");
    ("Panama City", "Honolulu");
    ("Mumbai", "Mombasa");
    ("Singapore", "Colombo");
    ("Darwin", "Davao");
    ("Lima", "Papeete");
    ("Papeete", "Sydney");
    ("Honolulu", "Manila");
    ("Cape Town", "Perth");
  ]

let continent_of_node net i =
  Geo.Region.continent_of_nearest (Infra.Network.node_coord net i)

(* Survival probability of cable [c] under a compiled plan. *)
let survival plan c = 1.0 -. Plan.death_prob plan c

(* Expected number of ordered-free continent pairs with >= 1 surviving
   direct cable.  Pairs with no cable at all contribute 0. *)
let pair_key a b =
  let sa = Geo.Region.continent_to_string a and sb = Geo.Region.continent_to_string b in
  if String.compare sa sb <= 0 then (sa, sb) else (sb, sa)

let surviving_pairs_with ~plan extra_cables =
  let network = Plan.network plan in
  let death_products = Hashtbl.create 32 in
  let note a b surv =
    if a <> b then begin
      let key = pair_key a b in
      let cur = Option.value ~default:1.0 (Hashtbl.find_opt death_products key) in
      Hashtbl.replace death_products key (cur *. (1.0 -. surv))
    end
  in
  for c = 0 to Infra.Network.nb_cables network - 1 do
    let cable = Infra.Network.cable network c in
    let surv = survival plan c in
    let continents =
      List.sort_uniq compare (List.map (continent_of_node network) cable.Infra.Cable.landings)
    in
    List.iter
      (fun a -> List.iter (fun b -> note a b surv) continents)
      continents
  done;
  (* Extra (hypothetical) cables: (continent_a, continent_b, survival). *)
  List.iter (fun (a, b, surv) -> note a b surv) extra_cables;
  Hashtbl.fold (fun _ death acc -> acc +. (1.0 -. death)) death_products 0.0

let expected_surviving_pairs ~network () =
  surviving_pairs_with ~plan:(Plan.compile ~network ~model:Failure_model.s1 ()) []

(* Survival of a hypothetical new low-latitude cable between two cities
   under S1, the state {!plan_augmentation} scores: its tier comes from
   its endpoint latitudes. *)
let hypothetical_survival a_city b_city =
  let a = Datasets.Cities.find a_city and b = Datasets.Cities.find b_city in
  let length_km = 1.1 *. Geo.Distance.haversine_km a.Datasets.Cities.pos b.Datasets.Cities.pos in
  let max_abs_lat =
    Float.max (Geo.Coord.abs_lat a.Datasets.Cities.pos) (Geo.Coord.abs_lat b.Datasets.Cities.pos)
  in
  let per_repeater =
    match Failure_model.s1 with
    | Failure_model.Latitude_tiered { high; mid; low; mid_threshold; high_threshold } -> (
        match Geo.Latband.tier_of_abs_lat ~mid_threshold ~high_threshold max_abs_lat with
        | Geo.Latband.High -> high
        | Geo.Latband.Mid -> mid
        | Geo.Latband.Low -> low)
    | _ -> assert false (* S1 is latitude-tiered *)
  in
  let n = Infra.Repeater.count_for_length ~spacing_km:150.0 ~length_km in
  let surv = (1.0 -. per_repeater) ** float_of_int n in
  (a, b, length_km, surv)

let plan_augmentation ?(budget = 3) ~network () =
  if budget < 0 then invalid_arg "Mitigation.plan_augmentation: negative budget";
  (* One compile serves the base score and every candidate × round
     rescore below — the greedy loop used to recompile the model for
     each. *)
  let plan = Plan.compile ~network ~model:Failure_model.s1 () in
  let base = surviving_pairs_with ~plan [] in
  let rec pick chosen chosen_extra base_score remaining budget_left =
    if budget_left = 0 then List.rev chosen
    else
      let scored =
        List.map
          (fun (ca, cb) ->
            let a, b, len, surv = hypothetical_survival ca cb in
            let extra =
              ( Geo.Region.continent_of_nearest a.Datasets.Cities.pos,
                Geo.Region.continent_of_nearest b.Datasets.Cities.pos,
                surv )
            in
            let score = surviving_pairs_with ~plan (extra :: chosen_extra) in
            ((ca, cb), len, extra, score -. base_score))
          remaining
      in
      match List.sort (fun (_, _, _, g1) (_, _, _, g2) -> Float.compare g2 g1) scored with
      | [] -> List.rev chosen
      | ((ca, cb), len, extra, gain) :: _ ->
          if gain <= 1e-9 then List.rev chosen
          else
            pick
              ({ from_city = ca; to_city = cb; length_km = len; gain } :: chosen)
              (extra :: chosen_extra) (base_score +. gain)
              (List.filter (fun (x, y) -> (x, y) <> (ca, cb)) remaining)
              (budget_left - 1)
  in
  pick [] [] base candidate_links budget

(* Partition prediction. *)

let predicted_partitions ?(survival_cutoff = 0.5) ~network () =
  if survival_cutoff < 0.0 || survival_cutoff > 1.0 then
    invalid_arg "Mitigation.predicted_partitions: cutoff outside [0, 1]";
  let plan = Plan.compile ~network ~model:Failure_model.s1 () in
  let dead =
    Array.init (Infra.Network.nb_cables network) (fun c ->
        survival plan c < survival_cutoff)
  in
  let g = Infra.Network.graph_without_cables network ~dead in
  Netgraph.Traversal.connected_components g
  |> List.sort (fun a b -> Int.compare (List.length b) (List.length a))
