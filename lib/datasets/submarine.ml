let target_cables = 470
let target_landing_points = 1241

(* (name, landing chain, stated length km).  Chains are geographic orders;
   every name must exist in [Cities].  Lengths are the operators' stated
   route lengths. *)
let real_cables =
  [
    (* --- North Atlantic: US/Canada <-> Europe --- *)
    ("TAT-14", [ "Manasquan"; "Tuckerton"; "Bude"; "St. Hilaire"; "Katwijk"; "Norden"; "Esbjerg" ], 15428.);
    ("Atlantic Crossing-1", [ "Shirley NY"; "Bude"; "Sylt"; "Amsterdam" ], 14301.);
    ("AC-2 Yellow", [ "New York"; "Bude" ], 7001.);
    ("Apollo North", [ "Shirley NY"; "Bude" ], 6300.);
    ("Apollo South", [ "Manasquan"; "Lannion" ], 6600.);
    ("FLAG Atlantic-1", [ "New York"; "Brest"; "Bude" ], 14500.);
    ("Grace Hopper", [ "Shirley NY"; "Bude"; "Bilbao" ], 7191.);
    ("Dunant", [ "Virginia Beach"; "St. Hilaire" ], 6400.);
    ("MAREA", [ "Virginia Beach"; "Sopelana" ], 6605.);
    ("TGN-Atlantic", [ "Wall Township"; "Highbridge" ], 13000.);
    ("GTT Express", [ "Halifax"; "Cork"; "Southport" ], 12200.);
    ("AEConnect-1", [ "Shirley NY"; "Killala" ], 5536.);
    ("Havfrue", [ "Wall Township"; "Killala"; "Kristiansand"; "Esbjerg" ], 7200.);
    ("Columbus-III", [ "Hollywood FL"; "Conil"; "Sesimbra" ], 9833.);
    (* --- US <-> Latin America / Caribbean --- *)
    ("Americas-II", [ "Hollywood FL"; "San Juan PR"; "Charlotte Amalie"; "Willemstad"; "Camuri"; "Cayenne"; "Fortaleza" ], 8373.);
    ("SAm-1", [ "Boca Raton"; "San Juan PR"; "Fortaleza"; "Santos"; "Las Toninas"; "Valparaiso"; "Lurin"; "Punta Carnero"; "Barranquilla" ], 25000.);
    ("GlobeNet", [ "Boca Raton"; "Fortaleza"; "Rio de Janeiro"; "Maldonado"; "Buenos Aires" ], 23500.);
    ("Monet", [ "Boca Raton"; "Fortaleza"; "Santos" ], 10556.);
    ("BRUSA", [ "Virginia Beach"; "San Juan PR"; "Fortaleza"; "Rio de Janeiro" ], 11000.);
    ("AMX-1", [ "Miami"; "Cancun"; "Barranquilla"; "Fortaleza"; "Rio de Janeiro" ], 17800.);
    ("ARCOS-1", [ "Miami"; "Nassau"; "Santo Domingo"; "San Juan PR"; "Cartagena"; "Colon"; "Puerto Limon"; "Cancun" ], 8600.);
    ("Maya-1", [ "Hollywood FL"; "Cancun"; "Puerto Limon"; "Colon" ], 4400.);
    ("Bahamas-2", [ "West Palm Beach"; "Nassau" ], 470.);
    ("PCCS", [ "Jacksonville Beach"; "San Juan PR"; "Cartagena"; "Colon"; "Punta Carnero" ], 6000.);
    ("Curie", [ "Hermosa Beach"; "Valparaiso" ], 10476.);
    ("Pan-American", [ "Charlotte Amalie"; "Willemstad"; "Barranquilla"; "Colon"; "Punta Carnero"; "Lurin"; "Arica" ], 7050.);
    ("South Pacific Cable", [ "Lurin"; "Arica"; "Valparaiso" ], 2700.);
    ("Tannat", [ "Santos"; "Maldonado"; "Las Toninas" ], 2000.);
    ("Junior", [ "Rio de Janeiro"; "Santos"; "Praia Grande" ], 390.);
    ("Malbec", [ "Las Toninas"; "Buenos Aires"; "Praia Grande" ], 2600.);
    (* --- Brazil / South America <-> Europe & Africa --- *)
    ("Ellalink", [ "Fortaleza"; "Praia"; "Sines" ], 6200.);
    ("Atlantis-2", [ "Las Toninas"; "Rio de Janeiro"; "Fortaleza"; "Praia"; "Dakar"; "Lisbon"; "Conil" ], 12000.);
    ("SACS", [ "Fortaleza"; "Sangano" ], 6165.);
    ("SAIL", [ "Fortaleza"; "Kribi" ], 6000.);
    (* --- Transpacific --- *)
    ("Southern Cross", [ "Sydney"; "Takapuna"; "Suva"; "Honolulu"; "Morro Bay" ], 30500.);
    ("Southern Cross NEXT", [ "Sydney"; "Whenuapai"; "Suva"; "Tarawa"; "Honolulu"; "Hermosa Beach" ], 13700.);
    ("Hawaiki", [ "Sydney"; "Whenuapai"; "Pago Pago"; "Honolulu"; "Pacific City" ], 15000.);
    ("Telstra Endeavour", [ "Sydney"; "Honolulu" ], 9125.);
    ("Asia-America Gateway", [ "San Luis Obispo"; "Honolulu"; "Hagatna"; "Manila"; "Ho Chi Minh City"; "Sri Racha"; "Mersing"; "Singapore" ], 20000.);
    ("SEA-US", [ "Hermosa Beach"; "Honolulu"; "Hagatna"; "Davao"; "Manado" ], 14500.);
    ("Unity", [ "Hermosa Beach"; "Chikura" ], 9620.);
    ("FASTER", [ "Bandon"; "Chikura"; "Shima" ], 11629.);
    ("PLCN", [ "Los Angeles"; "Toucheng"; "Baler" ], 12971.);
    ("JUPITER", [ "Hermosa Beach"; "Minamiboso"; "Chikura" ], 14000.);
    ("Trans-Pacific Express", [ "Nedonna Beach"; "Keoje"; "Toucheng"; "Chongming"; "Shantou" ], 17700.);
    ("New Cross Pacific", [ "Pacific City"; "Chongming"; "Busan"; "Toucheng" ], 13618.);
    ("TGN-Pacific", [ "Portland"; "Shima"; "Hagatna" ], 22300.);
    ("PC-1", [ "Grover Beach"; "Seattle"; "Shima"; "Kitaibaraki" ], 21000.);
    ("Japan-US CN", [ "Manchester CA"; "Morro Bay"; "Minamiboso"; "Kitaibaraki" ], 21000.);
    ("Honotua", [ "Papeete"; "Honolulu" ], 3900.);
    (* --- Hawaii / Alaska --- *)
    ("Hawaii Inter-Island", [ "Lihue"; "Honolulu"; "Kahului"; "Hilo" ], 600.);
    ("Paniolo", [ "Honolulu"; "Kahului" ], 250.);
    ("ASH", [ "Pago Pago"; "Honolulu" ], 4300.);
    ("Alaska United East", [ "Anchorage"; "Juneau"; "Seattle" ], 3500.);
    ("AKORN", [ "Anchorage"; "Nedonna Beach" ], 3200.);
    ("Alaska Panhandle", [ "Anchorage"; "Juneau"; "Ketchikan" ], 1500.);
    ("Ketchikan-Prince Rupert", [ "Ketchikan"; "Prince Rupert" ], 140.);
    (* --- Intra-Europe shorts --- *)
    ("CeltixConnect", [ "Southport"; "Dublin" ], 131.);
    ("ESAT-1", [ "Dublin"; "Southport" ], 200.);
    ("Circe North", [ "Lowestoft"; "Katwijk" ], 208.);
    ("Concerto", [ "Lowestoft"; "Ostend" ], 212.);
    ("Channel Crossing", [ "Goonhilly"; "Lannion" ], 180.);
    ("UK-Germany 6", [ "Lowestoft"; "Norden" ], 500.);
    ("NO-UK", [ "Edinburgh"; "Kristiansand" ], 700.);
    ("FARICE-1", [ "Edinburgh"; "Torshavn"; "Reykjavik" ], 1400.);
    ("DANICE", [ "Reykjavik"; "Esbjerg" ], 2300.);
    ("SHEFA-2", [ "Torshavn"; "Edinburgh" ], 1000.);
    ("Skagerrak", [ "Esbjerg"; "Kristiansand" ], 300.);
    ("COBRA", [ "Eemshaven"; "Esbjerg" ], 325.);
    ("Baltic Sea Cable", [ "Helsinki"; "Tallinn" ], 80.);
    ("FEC", [ "Stockholm"; "Helsinki" ], 400.);
    ("Baltica", [ "Kolobrzeg"; "Malmo" ], 250.);
    ("Latvia-Sweden", [ "Ventspils"; "Stockholm" ], 380.);
    ("BCS East-West", [ "Klaipeda"; "Gothenburg" ], 700.);
    ("Celtic Interconnector", [ "Cork"; "Brest" ], 570.);
    ("Pencan", [ "Conil"; "Casablanca" ], 320.);
    ("BALALINK", [ "Barcelona"; "Valencia" ], 350.);
    ("Tyrrhenian Link", [ "Genoa"; "Palermo" ], 970.);
    ("Svalbard?No-Mainland", [ "Tromso"; "Bergen" ], 1400.);
    (* --- Mediterranean / Europe <-> Asia trunks --- *)
    ("SEA-ME-WE 3",
     [ "Norden"; "Goonhilly"; "Penmarch"; "Sesimbra"; "Tangier"; "Marseille";
       "Mazara del Vallo"; "Chania"; "Alexandria"; "Suez"; "Jeddah"; "Djibouti";
       "Muscat"; "Karachi"; "Mumbai"; "Colombo"; "Penang"; "Singapore";
       "Jakarta"; "Perth"; "Da Nang"; "Hong Kong"; "Shanghai"; "Keoje"; "Tokyo" ],
     39000.);
    ("SEA-ME-WE 4",
     [ "Marseille"; "Annaba"; "Bizerte"; "Palermo"; "Alexandria"; "Suez";
       "Jeddah"; "Djibouti"; "Karachi"; "Mumbai"; "Colombo"; "Chennai";
       "Penang"; "Singapore" ],
     18800.);
    ("SEA-ME-WE 5",
     [ "Marseille"; "Catania"; "Chania"; "Alexandria"; "Suez"; "Jeddah";
       "Djibouti"; "Karachi"; "Mumbai"; "Colombo"; "Matara"; "Cox's Bazar";
       "Yangon"; "Songkhla"; "Penang"; "Singapore" ],
     20000.);
    ("AAE-1",
     [ "Marseille"; "Bari"; "Chania"; "Alexandria"; "Suez"; "Jeddah";
       "Djibouti"; "Salalah"; "Fujairah"; "Karachi"; "Mumbai"; "Yangon";
       "Satun"; "Penang"; "Singapore"; "Sihanoukville"; "Vung Tau"; "Hong Kong" ],
     25000.);
    ("FLAG Europe-Asia",
     [ "Goonhilly"; "Conil"; "Palermo"; "Alexandria"; "Suez"; "Aqaba";
       "Jeddah"; "Fujairah"; "Mumbai"; "Penang"; "Songkhla"; "Lantau Island";
       "Shanghai"; "Keoje"; "Chikura" ],
     28000.);
    ("IMEWE", [ "Marseille"; "Catania"; "Alexandria"; "Tripoli LB"; "Jeddah"; "Fujairah"; "Karachi"; "Mumbai" ], 12091.);
    ("EIG", [ "Bude"; "Lisbon"; "Conil"; "Marseille"; "Tripoli"; "Alexandria"; "Jeddah"; "Djibouti"; "Fujairah"; "Mumbai" ], 15000.);
    ("MedNautilus", [ "Athens"; "Chania"; "Tel Aviv"; "Haifa"; "Istanbul" ], 7000.);
    ("Lev Submarine System", [ "Tel Aviv"; "Marmaris" ], 900.);
    ("Turcyos", [ "Marmaris"; "Tripoli LB" ], 550.);
    ("Italy-Greece", [ "Bari"; "Thessaloniki" ], 940.);
    ("Italy-Libya", [ "Mazara del Vallo"; "Tripoli" ], 550.);
    ("Hannibal", [ "Mazara del Vallo"; "Bizerte" ], 170.);
    ("Didon", [ "Marseille"; "Tunis" ], 900.);
    ("Alval", [ "Valencia"; "Algiers" ], 560.);
    ("Orval", [ "Valencia"; "Oran" ], 380.);
    ("Black Sea: KAFOS", [ "Istanbul"; "Varna"; "Constanta" ], 500.);
    ("Caucasus Cable System", [ "Poti"; "Varna" ], 1200.);
    (* --- Europe <-> West Africa --- *)
    ("SAT-3/WASC", [ "Sesimbra"; "Conil"; "Dakar"; "Abidjan"; "Accra"; "Cotonou"; "Lagos"; "Libreville"; "Luanda"; "Melkbosstrand" ], 14350.);
    ("WACS", [ "Highbridge"; "Sesimbra"; "Praia"; "Dakar"; "Abidjan"; "Accra"; "Lome"; "Lagos"; "Douala"; "Libreville"; "Pointe-Noire"; "Muanda"; "Luanda"; "Swakopmund"; "Yzerfontein" ], 14530.);
    ("ACE", [ "Penmarch"; "Lisbon"; "Casablanca"; "Dakar"; "Banjul"; "Bissau"; "Conakry"; "Freetown"; "Monrovia"; "Abidjan"; "Accra"; "Lagos"; "Kribi"; "Libreville"; "Bata"; "Sangano" ], 17000.);
    ("MainOne", [ "Sesimbra"; "Accra"; "Lagos" ], 7000.);
    ("Glo-1", [ "Bude"; "Lagos"; "Accra" ], 9800.);
    ("Equiano", [ "Sesimbra"; "Lome"; "Lagos"; "Swakopmund"; "Melkbosstrand" ], 12000.);
    ("Atlas Offshore", [ "Marseille"; "Asilah" ], 1634.);
    ("Canalink", [ "Conil"; "Nouakchott"; "Dakar" ], 2600.);
    (* --- East Africa / Indian Ocean --- *)
    ("EASSy", [ "Port Sudan"; "Djibouti"; "Berbera"; "Mogadishu"; "Mombasa"; "Dar es Salaam"; "Toamasina"; "Nacala"; "Maputo"; "Mtunzini" ], 10500.);
    ("SEACOM", [ "Marseille"; "Zafarana"; "Djibouti"; "Mombasa"; "Dar es Salaam"; "Maputo"; "Mtunzini" ], 15000.);
    ("TEAMS", [ "Fujairah"; "Mombasa" ], 4500.);
    ("DARE1", [ "Djibouti"; "Berbera"; "Mogadishu"; "Mombasa" ], 4747.);
    ("LION2", [ "Port Louis"; "Saint-Denis"; "Toamasina"; "Mombasa" ], 3000.);
    ("SAFE", [ "Melkbosstrand"; "Mtunzini"; "Saint-Denis"; "Port Louis"; "Kochi"; "Penang" ], 13500.);
    ("METISS", [ "Port Louis"; "Saint-Denis"; "Mtunzini" ], 3200.);
    ("Comoros Domestic", [ "Moroni"; "Dar es Salaam" ], 400.);
    ("SEAS", [ "Victoria"; "Dar es Salaam" ], 1900.);
    (* --- Middle East / South Asia --- *)
    ("FALCON", [ "Fujairah"; "Manama"; "Doha"; "Kuwait City"; "Al Khobar"; "Bandar Abbas"; "Karachi"; "Mumbai" ], 10300.);
    ("i2i", [ "Chennai"; "Singapore" ], 3175.);
    ("TIC", [ "Chennai"; "Singapore" ], 3250.);
    ("Bay of Bengal Gateway", [ "Muscat"; "Fujairah"; "Mumbai"; "Colombo"; "Chennai"; "Penang"; "Singapore" ], 8100.);
    ("Gulf Bridge International", [ "Fujairah"; "Doha"; "Manama"; "Al Khobar"; "Kuwait City"; "Al Faw" ], 1400.);
    ("OMRAN/EPEG", [ "Muscat"; "Chabahar" ], 400.);
    ("India-Lanka", [ "Tuticorin"; "Colombo" ], 320.);
    ("Dhiraagu-SLT", [ "Male"; "Colombo" ], 840.);
    ("SMW5-Bangladesh spur", [ "Matara"; "Cox's Bazar" ], 2100.);
    (* --- Intra-Asia --- *)
    ("APG", [ "Singapore"; "Kuantan"; "Vung Tau"; "Hong Kong"; "Shantou"; "Toucheng"; "Chongming"; "Busan"; "Chikura" ], 10400.);
    ("APCN-2", [ "Singapore"; "Kuantan"; "Hong Kong"; "Shantou"; "Toucheng"; "Chongming"; "Busan"; "Kitaibaraki"; "Chikura" ], 19000.);
    ("EAC-C2C", [ "Singapore"; "Hong Kong"; "Batangas"; "Toucheng"; "Fangshan"; "Shanghai"; "Busan"; "Fukuoka"; "Chikura" ], 36800.);
    ("SJC", [ "Singapore"; "Batam"; "Bandar Seri Begawan"; "Batangas"; "Hong Kong"; "Shantou"; "Toucheng"; "Chikura" ], 8900.);
    ("Matrix", [ "Singapore"; "Jakarta" ], 1055.);
    ("IGG", [ "Jakarta"; "Surabaya"; "Makassar"; "Manado" ], 5300.);
    ("Palapa Ring", [ "Jakarta"; "Surabaya"; "Denpasar"; "Makassar" ], 4000.);
    ("SEAX-1", [ "Mersing"; "Batam"; "Singapore" ], 250.);
    ("BDM", [ "Penang"; "Medan" ], 300.);
    ("DAMAI", [ "Kota Kinabalu"; "Kuching"; "Mersing" ], 1800.);
    ("TSE-1", [ "Songkhla"; "Mersing" ], 1100.);
    ("MCT", [ "Sihanoukville"; "Kuantan"; "Songkhla" ], 1300.);
    ("Korea-Japan CN", [ "Busan"; "Fukuoka" ], 280.);
    ("HK-Taiwan Express", [ "Hong Kong"; "Fangshan" ], 800.);
    ("TPKM3", [ "Toucheng"; "Naha" ], 700.);
    ("Okinawa Trunk", [ "Naha"; "Fukuoka" ], 900.);
    ("RJCN", [ "Nakhodka"; "Kitaibaraki" ], 1800.);
    ("Sakhalin-Primorye", [ "Yuzhno-Sakhalinsk"; "Nakhodka" ], 900.);
    ("Kamchatka Link", [ "Yuzhno-Sakhalinsk"; "Magadan"; "Petropavlovsk-Kamchatsky" ], 2200.);
    ("HSCS Hokkaido-Sakhalin", [ "Sapporo"; "Yuzhno-Sakhalinsk" ], 570.);
    ("Taiwan Strait Express", [ "Xiamen"; "Toucheng" ], 270.);
    ("Hainan-HK?GuangdongLink", [ "Macau"; "Hong Kong" ], 70.);
    ("China-Korea CKC", [ "Qingdao"; "Keoje" ], 549.);
    ("CJFON", [ "Chongming"; "Keoje"; "Kitaibaraki" ], 1600.);
    (* --- Oceania --- *)
    ("Australia-Singapore Cable", [ "Perth"; "Jakarta"; "Singapore" ], 4600.);
    ("Indigo West", [ "Perth"; "Jakarta"; "Singapore" ], 4600.);
    ("Indigo Central", [ "Perth"; "Adelaide"; "Sydney" ], 4600.);
    ("AJC", [ "Sydney"; "Hagatna" ], 12700.);
    ("PPC-1", [ "Sydney"; "Madang"; "Hagatna" ], 6900.);
    ("APNG-2", [ "Sydney"; "Port Moresby" ], 1800.);
    ("Coral Sea Cable", [ "Sydney"; "Port Moresby"; "Honiara" ], 4700.);
    ("Tasman Global Access", [ "Auckland"; "Sydney" ], 2288.);
    ("Tasman-2", [ "Auckland"; "Sydney" ], 2300.);
    ("Interchange", [ "Port Vila"; "Suva" ], 1250.);
    ("Gondwana-1", [ "Noumea"; "Sydney" ], 2100.);
    ("Tonga Cable", [ "Nuku'alofa"; "Suva" ], 827.);
    ("Manatua", [ "Apia"; "Rarotonga"; "Papeete" ], 3600.);
    ("Tui-Samoa", [ "Suva"; "Apia" ], 1470.);
    ("ICN2/Kumul", [ "Port Moresby"; "Madang" ], 1100.);
    ("Bass Strait", [ "Melbourne"; "Hobart" ], 370.);
    ("Darwin-Jakarta?DJSC", [ "Darwin"; "Jakarta" ], 4500.);
    ("Micronesia Trunk", [ "Hagatna"; "Yap"; "Koror" ], 1200.);
    ("HANTRU-1", [ "Hagatna"; "Chuuk"; "Pohnpei"; "Majuro" ], 2900.);
    ("Marshalls-Kiribati", [ "Majuro"; "Tarawa" ], 750.);
    ("Norfolk Link", [ "Sydney"; "Norfolk Island" ], 1700.);
    ("Fiji-Tonga Extension", [ "Suva"; "Nadi" ], 250.);
  ]

(* Weight used when distributing satellite landing stations across coastal
   cities: population times a continent factor that reproduces the
   dataset's concentration in the North Atlantic (31% of endpoints above
   |40 deg|). *)
let continent_weight =
  let open Geo.Region in
  function
  | Europe -> 3.6
  | North_america -> 2.2
  | Asia -> 0.8
  | Oceania -> 1.5
  | South_america -> 0.8
  | Africa -> 0.7
  | Antarctica -> 0.0

type builder = {
  mutable nodes : Infra.Network.node list;  (* reversed *)
  mutable n_nodes : int;
  mutable pos : Geo.Coord.t array;  (* [pos.(id)] for [id < n_nodes] *)
  name_tbl : (string, int) Hashtbl.t;
}

let add_node b ~name ~country pos =
  let id = b.n_nodes in
  b.nodes <- { Infra.Network.id; name; country; pos } :: b.nodes;
  if id = Array.length b.pos then begin
    let grown = Array.make (Int.max 256 (2 * id)) pos in
    Array.blit b.pos 0 grown 0 id;
    b.pos <- grown
  end;
  b.pos.(id) <- pos;
  b.n_nodes <- id + 1;
  Hashtbl.replace b.name_tbl name id;
  id

let hub_id b city_name =
  match Hashtbl.find_opt b.name_tbl city_name with
  | Some id -> id
  | None ->
      let c = Cities.find city_name in
      add_node b ~name:c.Cities.name ~country:c.Cities.country c.Cities.pos

let build ?(seed = 42) () =
  let rng = Rng.create seed in
  let b = { nodes = []; n_nodes = 0; pos = [||]; name_tbl = Hashtbl.create 512 } in
  (* 1. Hub nodes for every real-cable landing city, in order of appearance. *)
  List.iter (fun (_, chain, _) -> List.iter (fun city -> ignore (hub_id b city)) chain)
    real_cables;
  (* 2. Real cables. *)
  let cables = ref [] in
  let n_cables = ref 0 in
  let pos_of id = b.pos.(id) in
  let add_cable ~name ~landings ~length_km =
    let id = !n_cables in
    let landing_pairs = List.map (fun nid -> (nid, pos_of nid)) landings in
    cables := Infra.Cable.make ~id ~name ~kind:Infra.Cable.Submarine
                ~landings:landing_pairs ?length_km ()
              :: !cables;
    incr n_cables
  in
  List.iter
    (fun (name, chain, length) ->
      let landings = List.map (hub_id b) chain in
      (* Deduplicate accidental repeats while preserving order. *)
      let seen = Hashtbl.create 8 in
      let landings =
        List.filter
          (fun id ->
            if Hashtbl.mem seen id then false
            else begin
              Hashtbl.add seen id ();
              true
            end)
          landings
      in
      add_cable ~name ~landings ~length_km:(Some length))
    real_cables;
  (* 3. Satellite landing stations around coastal cities.  Every hub is
     in place, so the satellites are exactly the ids from [n_hubs] on. *)
  let n_hubs = b.n_nodes in
  let pick_coastal =
    Rng.weighted_sampler
      (Array.map
         (fun c ->
           (c, Float.max 0.05 c.Cities.population_m *. continent_weight c.Cities.continent))
         (Cities.coastal_cities ()))
  in
  let satellites = ref [] in
  while b.n_nodes < target_landing_points do
    let c = pick_coastal rng in
    let dlat = Rng.uniform rng (-1.1) 1.1 and dlon = Rng.uniform rng (-1.1) 1.1 in
    let lat = Float.max (-89.0) (Float.min 89.0 (Geo.Coord.lat c.Cities.pos +. dlat)) in
    let lon = Geo.Coord.lon c.Cities.pos +. dlon in
    let pos = Geo.Coord.make ~lat ~lon in
    let name = Printf.sprintf "%s LS-%d" c.Cities.name b.n_nodes in
    let id = add_node b ~name ~country:c.Cities.country pos in
    satellites := id :: !satellites
  done;
  (* 4. Festoon chains: consume every satellite in short regional cables
     anchored at the nearest hub.  [sat_index] holds the unused
     satellites: each leaves it as a chain consumes it. *)
  let sat_index =
    Geo.Grid_index.of_list (List.map (fun id -> (pos_of id, id)) !satellites)
  in
  let used = Array.make b.n_nodes false in
  let consume id =
    used.(id) <- true;
    Geo.Grid_index.remove sat_index (pos_of id) id
  in
  let hub_index =
    let hubs = Hashtbl.fold (fun name id acc -> (name, id) :: acc) b.name_tbl [] in
    (* Shanghai proper only terminates the >= 28,000 km trunks in the
       TeleGeography snapshot (the property behind the paper's Shanghai
       case study); metro festoons land at Chongming instead. *)
    let hub_only =
      List.filter (fun (name, id) -> name <> "Shanghai" && id < n_hubs) hubs
    in
    Geo.Grid_index.of_list (List.map (fun (_, id) -> (pos_of id, id)) hub_only)
  in
  (* Next satellite for a festoon chain: a random unused landing within
     reach, preferring hops in the few-hundred-kilometre range typical of
     regional systems (this sets the dataset's median cable length). *)
  let next_chain_sat ~local pos =
    let min_hop = if local then 10.0 else 60.0 in
    let start_radius = if local then 90.0 else 650.0 in
    let rec search radius =
      let candidates =
        Geo.Grid_index.within_km sat_index pos ~radius_km:radius
        |> List.filter (fun (_, _, d) -> d > min_hop)
      in
      match candidates with
      | [] -> if radius > 22000.0 then None else search (radius *. 2.0)
      | hits -> Some ((fun (_, id, _) -> id) (Rng.choice rng (Array.of_list hits)))
    in
    search start_radius
  in
  let remaining_sats = Queue.create () in
  List.iter (fun id -> Queue.add id remaining_sats) (List.rev !satellites);
  let unused_sats = ref (List.length !satellites) in
  let festoon_count = ref 0 in
  (* Reserve a few cable slots for the connectivity stitching pass. *)
  let stitch_reserve = 72 in
  while not (Queue.is_empty remaining_sats) do
    let start = Queue.pop remaining_sats in
    if not used.(start) then begin
      consume start;
      decr unused_sats;
      (* Two festoon regimes: "local" systems joining landing stations of
         one metro area or island group (tens of km hops, often
         unrepeatered) and "regional" systems spanning neighbouring
         countries; the mix sets the dataset's median length.  The chain
         size adapts so that the satellites are consumed in exactly the
         cable budget left over after the real systems. *)
      let local = Rng.bernoulli rng ~p:0.58 in
      let chains_left = Int.max 1 (target_cables - stitch_reserve - !n_cables) in
      let desired =
        int_of_float
          (Float.ceil (float_of_int (!unused_sats + 1) /. float_of_int chains_left))
      in
      let jitter = Rng.int_in rng (-1) 1 in
      let target_len = Int.max 2 (Int.min 12 (desired + jitter)) in
      let chain = ref [ start ] in
      let cursor = ref (pos_of start) in
      let continue = ref true in
      while List.length !chain < target_len && !continue do
        match next_chain_sat ~local !cursor with
        | Some id ->
            consume id;
            decr unused_sats;
            chain := id :: !chain;
            cursor := pos_of id
        | None -> continue := false
      done;
      (* Tie into the global network through the nearest hub. *)
      let chain =
        match Geo.Grid_index.nearest hub_index !cursor with
        | Some (_, hub, d) when (not (List.mem hub !chain)) && ((not local) || d < 110.0)
          ->
            hub :: !chain
        | _ -> !chain
      in
      if List.length chain >= 2 then begin
        incr festoon_count;
        let gc =
          Geo.Distance.path_length_km (List.map pos_of (List.rev chain))
        in
        add_cable
          ~name:(Printf.sprintf "Festoon-%d" !festoon_count)
          ~landings:(List.rev chain)
          ~length_km:(Some (Float.max 20.0 (gc *. 1.15)))
      end
    end
  done;
  (* 5. Stitch any disconnected components into the giant component so the
     baseline network is a single fabric (the real submarine graph is).
     Components come from union-find over each cable's landings, rooted
     at their least member: listed by that member, each ascending, they
     are [Netgraph.Traversal.connected_components]'s list.  One pass
     suffices, since every stitch joins a component to the giant. *)
  let n = b.n_nodes in
  let parent = Array.init n Fun.id in
  let rec root i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let r = root p in
      parent.(i) <- r;
      r
    end
  in
  List.iter
    (fun (c : Infra.Cable.t) ->
      match c.Infra.Cable.landings with
      | [] -> ()
      | first :: rest ->
          List.iter
            (fun l ->
              let ra = root first and rb = root l in
              if ra <> rb then parent.(Int.max ra rb) <- Int.min ra rb)
            rest)
    !cables;
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    let r = root i in
    members.(r) <- i :: members.(r)
  done;
  let giant = ref [] and giant_size = ref 0 in
  Array.iter
    (fun m ->
      let size = List.length m in
      if size > !giant_size then begin
        giant := m;
        giant_size := size
      end)
    members;
  let giant = Array.of_list !giant in
  if Array.length giant < n then begin
    (* Link each other component's least member to the nearest giant
       member: the first in ascending order at the least distance,
       never Shanghai (see [hub_index]).  A member whose latitude alone
       puts it farther than the best so far is skipped. *)
    let shanghai = Option.value ~default:(-1) (Hashtbl.find_opt b.name_tbl "Shanghai") in
    let cos = Array.map (fun m -> Geo.Distance.cos_lat (pos_of m)) giant in
    Array.iteri
      (fun r comp ->
        if comp <> [] && r <> giant.(0) then begin
          let p = pos_of r in
          let cos_p = Geo.Distance.cos_lat p in
          let best = ref giant.(0) and bd = ref Float.infinity in
          let dlat_max = ref Float.infinity in
          Array.iteri
            (fun k m ->
              let q = pos_of m in
              if m <> shanghai
                 && Float.abs (Geo.Coord.lat q -. Geo.Coord.lat p) <= !dlat_max
              then begin
                let d = Geo.Distance.haversine_cos_km p ~cos_a:cos_p q ~cos_b:cos.(k) in
                if d < !bd then begin
                  best := m;
                  bd := d;
                  dlat_max := Geo.Distance.max_dlat_deg d
                end
              end)
            giant;
          add_cable
            ~name:(Printf.sprintf "Stitch-%d" !n_cables)
            ~landings:[ r; !best ]
            ~length_km:(Some (Float.max 20.0 (!bd *. 1.15)))
        end)
      members
  end;
  (* 6. Fill to the target cable count with regional hub-to-hub systems. *)
  let hubs =
    Array.of_list
      (Hashtbl.fold
         (fun name id acc -> if name = "Shanghai" then acc else id :: acc)
         b.name_tbl [])
  in
  let guard = ref 0 in
  while !n_cables < target_cables && !guard < 100000 do
    incr guard;
    let a = Rng.choice rng hubs in
    let reach = Rng.lognormal rng ~mu:(log 1500.0) ~sigma:0.8 in
    let candidates =
      Geo.Grid_index.within_km hub_index (pos_of a) ~radius_km:reach
      |> List.filter (fun (_, id, _) -> id <> a)
    in
    match candidates with
    | [] -> ()
    | hits ->
        let _, bb, d =
          List.fold_left
            (fun ((_, _, bd) as best) ((_, _, dd) as hit) ->
              if Float.abs (dd -. reach) < Float.abs (bd -. reach) then hit else best)
            (List.hd hits) (List.tl hits)
        in
        if d > 30.0 then begin
          add_cable
            ~name:(Printf.sprintf "Regional-%d" !n_cables)
            ~landings:[ a; bb ]
            ~length_km:(Some (d *. 1.15))
        end
  done;
  Infra.Network.create ~name:"submarine" ~nodes:(List.rev b.nodes)
    ~cables:(List.rev !cables)

let hub_node net city_name =
  let n = Infra.Network.nb_nodes net in
  let rec scan i =
    if i >= n then None
    else
      let node = Infra.Network.node net i in
      if node.Infra.Network.name = city_name then Some i else scan (i + 1)
  in
  scan 0

let nodes_in_country net country =
  let n = Infra.Network.nb_nodes net in
  let rec scan i acc =
    if i >= n then List.rev acc
    else
      let node = Infra.Network.node net i in
      scan (i + 1)
        (if node.Infra.Network.country = country then i :: acc else acc)
  in
  scan 0 []
