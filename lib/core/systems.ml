type as_summary = {
  total : int;
  reach_above_40_pct : float;
  median_spread_deg : float;
  p90_spread_deg : float;
  reach_curve : (float * float) list;
  spread_cdf : (float * float) list;
}

let analyze_ases ases =
  let thresholds = [ 0.; 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90. ] in
  let reach_curve =
    List.map
      (fun th -> (th, 100.0 *. Datasets.Caida.reach_above ases ~threshold:th))
      thresholds
  in
  let spreads = Array.to_list (Array.map (fun a -> a.Datasets.Caida.spread_deg) ases) in
  {
    total = Array.length ases;
    reach_above_40_pct = 100.0 *. Datasets.Caida.reach_above ases ~threshold:40.0;
    median_spread_deg = Stats.median spreads;
    p90_spread_deg = Stats.percentile spreads ~p:90.0;
    reach_curve;
    spread_cdf = Datasets.Caida.spread_cdf ases;
  }

let resilience_score weighted_lats =
  match weighted_lats with
  | [] -> 0.0
  | _ ->
      let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 weighted_lats in
      if total <= 0.0 then 0.0
      else begin
        let safe_share = 1.0 -. Geo.Latband.fraction_above weighted_lats ~threshold:40.0 in
        (* Evenness: entropy of the weight over six 30-degree bands. *)
        let bands = Array.make 6 0.0 in
        List.iter
          (fun (lat, w) ->
            let i = Int.max 0 (Int.min 5 (int_of_float ((lat +. 90.0) /. 30.0))) in
            bands.(i) <- bands.(i) +. w)
          weighted_lats;
        let entropy =
          Array.fold_left
            (fun acc b ->
              if b <= 0.0 then acc
              else
                let p = b /. total in
                acc -. (p *. log p))
            0.0 bands
        in
        let evenness = entropy /. log 6.0 in
        safe_share *. (0.5 +. (0.5 *. evenness))
      end

type dc_summary = {
  operator : Datasets.Datacenters.operator;
  sites : int;
  continents : int;
  latitude_spread_deg : float;
  share_above_40_pct : float;
  resilience_score : float;
}

let analyze_one_operator op =
  let lats = Datasets.Datacenters.latitudes op in
  {
    operator = op;
    sites = List.length lats;
    continents = List.length (Datasets.Datacenters.continents_covered op);
    latitude_spread_deg = Datasets.Datacenters.latitude_spread op;
    share_above_40_pct = 100.0 *. Geo.Latband.fraction_above lats ~threshold:40.0;
    resilience_score = resilience_score lats;
  }

let analyze_datacenters () =
  [ analyze_one_operator Datasets.Datacenters.Google;
    analyze_one_operator Datasets.Datacenters.Facebook ]

type dns_summary = {
  instances : int;
  letters : int;
  continents : int;
  share_above_40_pct : float;
  resilience_score : float;
}

let analyze_dns instances =
  let lats = Datasets.Dns_roots.latitudes instances in
  let letters =
    Array.to_list instances
    |> List.map (fun i -> i.Datasets.Dns_roots.letter)
    |> List.sort_uniq Char.compare |> List.length
  in
  {
    instances = Array.length instances;
    letters;
    continents = List.length (Datasets.Dns_roots.per_continent instances);
    share_above_40_pct = 100.0 *. Geo.Latband.fraction_above lats ~threshold:40.0;
    resilience_score = resilience_score lats;
  }
