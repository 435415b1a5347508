type metric =
  | Direct_loss
  | Routed_loss
  | Long_haul_isolated of float

type spec = {
  id : string;
  description : string;
  group_a : string list;
  group_b : string list;
  metric : metric;
  state : Failure_model.t;
  state_name : string;
  expectation : string;
}

type finding = {
  spec : spec;
  loss_probability : float;
  direct_cables : int;
}

let s1 = Failure_model.s1
let s2 = Failure_model.s2

let europe =
  [ "United Kingdom"; "Ireland"; "France"; "Spain"; "Portugal"; "Germany";
    "Netherlands"; "Belgium"; "Denmark"; "Norway"; "Sweden"; "Finland";
    "Iceland"; "Italy"; "Greece" ]

let northeast_us =
  [ "city:New York"; "city:Shirley NY"; "city:Wall Township"; "city:Manasquan";
    "city:Tuckerton"; "city:Virginia Beach"; "city:Halifax" ]

let paper_case_studies =
  [
    {
      id = "us-europe-s1";
      description = "US East coast to Europe under high failures";
      group_a = [ "United States" ];
      group_b = europe;
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "US-Europe connectivity is lost with a probability of ~1.0";
    };
    {
      id = "ne-europe-s1";
      description = "North East US (and Canada) to Europe under high failures";
      group_a = northeast_us;
      group_b = europe;
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "connectivity fails completely (probability ~1.0)";
    };
    {
      id = "ne-europe-s2";
      description = "North East US (and Canada) to Europe under low failures";
      group_a = northeast_us;
      group_b = europe;
      metric = Direct_loss;
      state = s2;
      state_name = "S2";
      expectation = "fails completely with probability ~0.8 in the paper's dataset";
    };
    {
      id = "california-pacific-s2";
      description = "California to Hawaii/Japan/Hong Kong/Mexico under low failures";
      group_a =
        [ "city:Hermosa Beach"; "city:Los Angeles"; "city:Morro Bay";
          "city:San Luis Obispo"; "city:Grover Beach"; "city:Manchester CA" ];
      group_b = [ "city:Honolulu"; "city:Chikura"; "city:Shima"; "city:Hong Kong" ];
      metric = Direct_loss;
      state = s2;
      state_name = "S2";
      expectation = "unaffected (loss probability near 0)";
    };
    {
      id = "florida-south-s2";
      description = "Florida to Brazil/Bahamas under low failures";
      group_a =
        [ "city:Miami"; "city:Boca Raton"; "city:Hollywood FL";
          "city:West Palm Beach"; "city:Jacksonville Beach" ];
      group_b = [ "Brazil"; "Bahamas" ];
      metric = Direct_loss;
      state = s2;
      state_name = "S2";
      expectation = "not affected under the low-failure scenario";
    };
    {
      id = "uswest-longhaul-s1";
      description = "US West coast long-distance connectivity under high failures";
      group_a =
        [ "city:Hermosa Beach"; "city:Los Angeles"; "city:Morro Bay";
          "city:San Luis Obispo"; "city:Grover Beach"; "city:Seattle";
          "city:Portland"; "city:Pacific City"; "city:Nedonna Beach";
          "city:Bandon"; "city:Manchester CA" ];
      group_b = [];
      metric = Long_haul_isolated 3000.0;
      state = s1;
      state_name = "S1";
      expectation = "all long-distance connectivity lost except ~one trans-Pacific cable";
    };
    {
      id = "hawaii-us-s1";
      description = "Hawaii to continental US under high failures";
      group_a = [ "city:Honolulu"; "city:Hilo"; "city:Kahului"; "city:Lihue" ];
      group_b =
        [ "city:Morro Bay"; "city:Hermosa Beach"; "city:Pacific City";
          "city:San Luis Obispo" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "Hawaii remains connected to the continental US";
    };
    {
      id = "hawaii-australia-s1";
      description = "Hawaii to Australia under high failures";
      group_a = [ "city:Honolulu" ];
      group_b = [ "Australia" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "Hawaii loses its connectivity to Australia";
    };
    {
      id = "alaska-bc-s1";
      description = "Alaska to British Columbia under high failures";
      group_a = [ "city:Anchorage"; "city:Juneau"; "city:Ketchikan" ];
      group_b = [ "city:Prince Rupert"; "city:Vancouver" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "Alaska keeps only its link to British Columbia";
    };
    {
      id = "shanghai-longhaul-s2";
      description = "Shanghai long-distance connectivity under low failures";
      group_a = [ "city:Shanghai" ];
      group_b = [];
      metric = Long_haul_isolated 1000.0;
      state = s2;
      state_name = "S2";
      expectation =
        "Shanghai loses all long-distance connectivity (its cables are all >= 28,000 km)";
    };
    {
      id = "china-longhaul-s1";
      description = "China long-distance connectivity under high failures";
      group_a =
        [ "city:Shanghai"; "city:Hong Kong"; "city:Shantou"; "city:Chongming";
          "city:Qingdao"; "city:Xiamen"; "city:Lantau Island"; "city:Macau" ];
      group_b = [];
      metric = Long_haul_isolated 3000.0;
      state = s1;
      state_name = "S1";
      expectation = "loses all long-distance cables except about one";
    };
    {
      id = "india-hubs-s1";
      description = "Mumbai and Chennai international connectivity under high failures";
      group_a = [ "city:Mumbai"; "city:Chennai" ];
      group_b = [ "Singapore"; "United Arab Emirates"; "Oman"; "Sri Lanka" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "Mumbai and Chennai do not lose connectivity even with high failures";
    };
    {
      id = "singapore-hub-s1";
      description = "Singapore hub connectivity under high failures";
      group_a = [ "Singapore" ];
      group_b = [ "India"; "Australia"; "Indonesia"; "Malaysia" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation =
        "several cables remain; Chennai, Perth and Jakarta stay reachable";
    };
    {
      id = "uk-europe-s1";
      description = "UK to neighbouring Europe under high failures";
      group_a = [ "United Kingdom" ];
      group_b = [ "France"; "Norway"; "Ireland"; "Netherlands"; "Belgium"; "Germany" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "connectivity to neighbouring European locations remains";
    };
    {
      id = "uk-northamerica-s1";
      description = "UK to North America under high failures";
      group_a = [ "United Kingdom" ];
      group_b = [ "United States"; "Canada" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "connectivity to North America is lost";
    };
    {
      id = "southafrica-coasts-s1";
      description = "South Africa along both African coasts under high failures";
      group_a = [ "South Africa" ];
      group_b = [ "Portugal"; "Nigeria"; "Somalia"; "Mozambique"; "Kenya"; "Angola" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "retains connectivity on both the eastern and western coasts";
    };
    {
      id = "nz-australia-s1";
      description = "New Zealand to Australia under high failures";
      group_a = [ "New Zealand" ];
      group_b = [ "Australia" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "New Zealand keeps only its connectivity to Australia";
    };
    {
      id = "nz-uswest-s1";
      description = "New Zealand trans-Pacific (to US) under high failures";
      group_a = [ "New Zealand" ];
      group_b = [ "United States" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "other long-distance connectivity is lost";
    };
    {
      id = "australia-jakarta-s1";
      description = "Australia to Jakarta/Singapore under high failures";
      group_a = [ "Australia" ];
      group_b = [ "Indonesia"; "Singapore" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "the longest unaffected cable links Australia with Jakarta and Singapore";
    };
    {
      id = "brazil-europe-s1";
      description = "Brazil to Europe under high failures";
      group_a = [ "Brazil" ];
      group_b = [ "Portugal"; "Spain" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation =
        "Brazil retains connectivity to Europe (Ellalink is 6,200 km vs 9,833 km from Florida)";
    };
    {
      id = "brazil-northamerica-s1";
      description = "Brazil to North America under high failures";
      group_a = [ "Brazil" ];
      group_b = [ "United States" ];
      metric = Direct_loss;
      state = s1;
      state_name = "S1";
      expectation = "Brazil loses its connectivity to North America";
    };
  ]

let resolve_group net names =
  let city_prefix = "city:" in
  List.concat_map
    (fun name ->
      if String.length name > String.length city_prefix
         && String.sub name 0 (String.length city_prefix) = city_prefix
      then
        let city = String.sub name 5 (String.length name - 5) in
        match Datasets.Submarine.hub_node net city with
        | Some id -> [ id ]
        | None -> []
      else Datasets.Submarine.nodes_in_country net name)
    names
  |> List.sort_uniq Int.compare

let cables_between net group_a group_b =
  let in_a = Hashtbl.create 64 and in_b = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace in_a n ()) group_a;
  List.iter (fun n -> Hashtbl.replace in_b n ()) group_b;
  let out = ref [] in
  for c = 0 to Infra.Network.nb_cables net - 1 do
    let cable = Infra.Network.cable net c in
    let lands tbl = List.exists (Hashtbl.mem tbl) cable.Infra.Cable.landings in
    if lands in_a && lands in_b then out := cable :: !out
  done;
  List.rev !out

let long_haul_cables net group_a min_len =
  let in_a = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace in_a n ()) group_a;
  let out = ref [] in
  for c = 0 to Infra.Network.nb_cables net - 1 do
    let cable = Infra.Network.cable net c in
    if cable.Infra.Cable.length_km >= min_len
       && List.exists (Hashtbl.mem in_a) cable.Infra.Cable.landings
    then out := cable :: !out
  done;
  List.rev !out

(* [dead] is a predicate on cable ids (see [Capacity.flow_between]). *)
let routed_lost net dead group_a group_b =
  match (group_a, group_b) with
  | [], _ | _, [] -> true
  | a0 :: _, _ ->
      let g = Infra.Network.graph_surviving net ~dead in
      let reach = Netgraph.Traversal.reachable_set g a0 in
      (* All of group_a is connected in the baseline (single fabric), so
         testing from one representative suffices for loss of the whole
         group; we check every b. *)
      not (List.exists (fun b -> Hashtbl.mem reach b) group_b)

let evaluate ?(trials = 50) net spec =
  let group_a = resolve_group net spec.group_a in
  let group_b = resolve_group net spec.group_b in
  let watched =
    match spec.metric with
    | Direct_loss -> cables_between net group_a group_b
    | Long_haul_isolated min_len -> long_haul_cables net group_a min_len
    | Routed_loss -> []
  in
  let plan = Plan.compile ~spacing_km:150.0 ~network:net ~model:spec.state () in
  let losses =
    Plan.run_trials_par plan ~trials ~seed:(23 + Hashtbl.hash spec.id) ~init:0
      ~map:(fun ~rng:_ ~dead ->
        match spec.metric with
        | Direct_loss | Long_haul_isolated _ ->
            watched = []
            || List.for_all
                 (fun (c : Infra.Cable.t) -> Deadset.get dead c.Infra.Cable.id)
                 watched
        | Routed_loss -> routed_lost net (Deadset.get dead) group_a group_b)
      ~merge:(fun losses lost -> if lost then losses + 1 else losses)
  in
  {
    spec;
    loss_probability = float_of_int losses /. float_of_int trials;
    direct_cables = List.length watched;
  }

let run_all ?trials net = List.map (evaluate ?trials net) paper_case_studies
