type region = {
  name : string;
  countries : string list;
  reference : Geo.Coord.t;
  gic_vulnerability : float;
}

let r name countries lat lon gic_vulnerability =
  { name; countries; reference = Geo.Coord.make ~lat ~lon; gic_vulnerability }

let world_regions =
  [
    (* The three US interconnects of the paper's §5.5 example, plus
       Canada split out for Quebec 1989. *)
    r "US-Eastern" [ "United States" ] 41.0 (-78.0) 1.2;
    r "US-Western" [ "United States" ] 40.0 (-112.0) 1.0;
    r "ERCOT-Texas" [ "United States" ] 31.0 (-98.0) 0.8;
    r "Canada" [ "Canada" ] 50.0 (-75.0) 1.5;
    r "Central America" [ "Mexico"; "Guatemala"; "El Salvador"; "Honduras"; "Nicaragua";
                          "Costa Rica"; "Panama"; "Cuba"; "Jamaica"; "Dominican Republic";
                          "Puerto Rico"; "US Virgin Islands"; "Bahamas"; "Barbados"; "Curacao"; "Haiti";
                          "Belize" ]
      19.0 (-95.0) 0.7;
    r "South America" [ "Brazil"; "Argentina"; "Chile"; "Peru"; "Ecuador"; "Colombia";
                        "Venezuela"; "Guyana"; "Suriname"; "French Guiana"; "Uruguay";
                        "Paraguay"; "Bolivia"; "Trinidad and Tobago" ]
      (-18.0) (-55.0) 0.8;
    r "Nordic" [ "Norway"; "Sweden"; "Finland"; "Denmark"; "Iceland"; "Faroe Islands" ]
      61.0 15.0 1.5;
    r "UK-Ireland" [ "United Kingdom"; "Ireland" ] 53.0 (-2.0) 1.2;
    r "Continental Europe"
      [ "France"; "Spain"; "Portugal"; "Germany"; "Netherlands"; "Belgium"; "Switzerland";
        "Austria"; "Italy"; "Poland"; "Czechia"; "Slovakia"; "Hungary"; "Romania";
        "Bulgaria"; "Serbia"; "Croatia"; "Greece"; "Lithuania"; "Latvia"; "Estonia";
        "Malta"; "Cyprus"; "Luxembourg"; "Slovenia"; "Albania"; "North Macedonia";
        "Bosnia and Herzegovina"; "Montenegro"; "Kosovo"; "Moldova" ]
      49.0 8.0 1.0;
    r "Russia-CIS" [ "Russia"; "Ukraine"; "Belarus"; "Kazakhstan"; "Uzbekistan";
                     "Kyrgyzstan"; "Tajikistan"; "Turkmenistan"; "Georgia"; "Armenia";
                     "Azerbaijan"; "Mongolia" ]
      56.0 45.0 1.3;
    r "Middle East" [ "Turkey"; "Israel"; "Lebanon"; "Jordan"; "Syria"; "Iraq"; "Kuwait";
                      "Saudi Arabia"; "Qatar"; "Bahrain"; "United Arab Emirates"; "Oman";
                      "Yemen"; "Iran" ]
      28.0 45.0 0.7;
    r "South Asia" [ "India"; "Pakistan"; "Afghanistan"; "Nepal"; "Bhutan"; "Bangladesh";
                     "Sri Lanka"; "Maldives" ]
      22.0 78.0 0.7;
    r "East Asia" [ "China"; "Taiwan"; "Japan"; "South Korea"; "North Korea" ] 35.0 115.0 0.9;
    r "Southeast Asia" [ "Myanmar"; "Thailand"; "Vietnam"; "Cambodia"; "Laos"; "Malaysia";
                         "Singapore"; "Indonesia"; "Philippines"; "Brunei" ]
      5.0 105.0 0.6;
    r "Oceania" [ "Australia"; "New Zealand"; "Papua New Guinea"; "Fiji"; "New Caledonia";
                  "Vanuatu"; "Solomon Islands"; "Samoa"; "American Samoa"; "Tonga";
                  "Kiribati"; "Marshall Islands"; "Micronesia"; "Palau"; "Guam";
                  "Northern Mariana Islands"; "French Polynesia"; "Cook Islands" ]
      (-30.0) 145.0 0.8;
    r "Africa" [ "Egypt"; "Nigeria"; "DR Congo"; "Angola"; "South Africa"; "Kenya";
                 "Tanzania"; "Ethiopia"; "Djibouti"; "Somalia"; "Sudan"; "Ghana";
                 "Cote d'Ivoire"; "Senegal"; "Mali"; "Burkina Faso"; "Niger"; "Guinea";
                 "Sierra Leone"; "Liberia"; "Togo"; "Benin"; "Cameroon"; "Gabon"; "Congo";
                 "Equatorial Guinea"; "Mauritania"; "Morocco"; "Algeria"; "Tunisia";
                 "Libya"; "Zambia"; "Zimbabwe"; "Mozambique"; "Madagascar"; "Mauritius"; "Malawi";
                 "Chad"; "Central African Republic"; "South Sudan";
                 "Reunion"; "Seychelles"; "Comoros"; "Uganda"; "Rwanda"; "Burundi";
                 "Botswana"; "Namibia"; "Cape Verde"; "Gambia"; "Guinea-Bissau";
                 "Sao Tome and Principe" ]
      0.0 20.0 0.6;
  ]

let region_of_country country =
  List.find_opt (fun reg -> List.mem country reg.countries) world_regions

(* For US nodes the interconnect depends on longitude. *)
let region_of_node (node : Infra.Network.node) =
  if node.Infra.Network.country = "United States" then begin
    let lon = Geo.Coord.lon node.Infra.Network.pos
    and lat = Geo.Coord.lat node.Infra.Network.pos in
    let name =
      if lon < -104.0 || lat > 49.0 || lon < -140.0 then "US-Western"
      else if lat < 33.5 && lon > -104.0 && lon < -93.5 then "ERCOT-Texas"
      else "US-Eastern"
    in
    List.find_opt (fun reg -> reg.name = name) world_regions
  end
  else region_of_country node.Infra.Network.country

let failure_probability reg ~dst_nt =
  let storm = Gic.Disturbance.storm_of_dst dst_nt in
  let glat = Geo.Geomagnetic.dipole_latitude reg.reference in
  let factor = Gic.Disturbance.latitude_factor storm ~geomag_lat:glat in
  (* Strength scaling: a 1989-class storm saturates fully exposed grids
     (Quebec collapsed); weaker storms rarely topple them. *)
  let strength = Float.min 1.5 (Float.abs dst_nt /. 589.0) in
  Float.min 1.0 (factor *. strength *. reg.gic_vulnerability)

let outage_days rng reg ~dst_nt =
  (* Breaker-level events recover in hours-days; transformer damage under
     extreme storms takes months (the paper quotes up to 2 years). *)
  let severity = Float.min 2.0 (Float.abs dst_nt /. 589.0) *. reg.gic_vulnerability in
  let median = 0.5 +. (30.0 *. Float.max 0.0 (severity -. 0.5)) in
  Rng.lognormal rng ~mu:(log (Float.max 0.25 median)) ~sigma:0.8

type coupled_result = {
  cables_failed_pct : float;
  nodes_cable_dark_pct : float;
  nodes_grid_dark_pct : float;
  nodes_dark_pct : float;
  amplification : float;
  regions_down : string list;
}

let simulate ?(trials = 30) ~network ~model ~dst_nt () =
  Obs.Span.with_ ~name:"powergrid.simulate" @@ fun () ->
  let p = Plan.compile ~spacing_km:150.0 ~network ~model () in
  let n = Infra.Network.nb_nodes network in
  let node_region =
    Array.init n (fun i -> region_of_node (Infra.Network.node network i))
  in
  (* One trial: the grids that stay down past the backup window, drawn
     from the trial's own stream after its cable deaths, then the dark
     node percentages. *)
  let trial ~rng ~dead =
    let down =
      List.filter
        (fun reg ->
          Rng.bernoulli rng ~p:(failure_probability reg ~dst_nt)
          && outage_days rng reg ~dst_nt > 3.0)
        world_regions
    in
    let has_cable = Array.make n false and has_live = Array.make n false in
    for c = 0 to Infra.Network.nb_cables network - 1 do
      let cable = Infra.Network.cable network c in
      List.iter
        (fun l ->
          has_cable.(l) <- true;
          if not (Deadset.get dead c) then has_live.(l) <- true)
        cable.Infra.Cable.landings
    done;
    let total = ref 0 and cdark = ref 0 and gdark = ref 0 and either = ref 0 in
    for i = 0 to n - 1 do
      if has_cable.(i) then begin
        incr total;
        let cable_down = not has_live.(i) in
        let grid_down =
          match node_region.(i) with
          | Some reg -> List.exists (fun d -> d.name = reg.name) down
          | None -> false
        in
        if cable_down then incr cdark;
        if grid_down then incr gdark;
        if cable_down || grid_down then incr either
      end
    done;
    let pct x = 100.0 *. float_of_int x /. float_of_int (Int.max 1 !total) in
    ( Montecarlo.cables_failed_pct network dead,
      pct !cdark,
      pct !gdark,
      pct !either,
      List.map (fun reg -> reg.name) down )
  in
  (* Summed in trial order, on this domain. *)
  let cables, cable_dark, grid_dark, dark, downs =
    Plan.run_trials_par ~jobs:1 p ~trials ~seed:31 ~init:(0.0, 0.0, 0.0, 0.0, [])
      ~map:trial
      ~merge:(fun (c, cd, gd, d, downs) (c', cd', gd', d', down) ->
        (c +. c', cd +. cd', gd +. gd', d +. d', down @ downs))
  in
  let t = float_of_int trials in
  let cable_dark = cable_dark /. t and grid_dark = grid_dark /. t and dark = dark /. t in
  let down_count name = List.length (List.filter (String.equal name) downs) in
  {
    cables_failed_pct = cables /. t;
    nodes_cable_dark_pct = cable_dark;
    nodes_grid_dark_pct = grid_dark;
    nodes_dark_pct = dark;
    amplification = dark /. Float.max 0.1 cable_dark;
    regions_down =
      List.filter_map
        (fun reg -> if 2 * down_count reg.name > trials then Some reg.name else None)
        world_regions
      |> List.sort String.compare;
  }
