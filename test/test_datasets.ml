(* Tests for the dataset generators: calibration against the counts and
   marginals published in the paper (see DESIGN.md section 1). *)

let check_close eps = Alcotest.(check (float eps))

(* Datasets are deterministic; build them once for the whole suite. *)
let submarine = lazy (Datasets.Submarine.build ())
let intertubes = lazy (Datasets.Intertubes.build ())
let itu_small = lazy (Datasets.Itu.build ~scale:0.1 ())
let ases = lazy (Datasets.Caida.build ~ases:6000 ())
let dns = lazy (Datasets.Dns_roots.build ())
let ixps = lazy (Datasets.Ixp.build ())

let pct_above lats t = 100.0 *. Geo.Latband.fraction_above lats ~threshold:t

(* --- Cities --- *)

let test_cities_unique_names () =
  let names = Array.to_list (Array.map (fun c -> c.Datasets.Cities.name) Datasets.Cities.all) in
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_cities_count () =
  Alcotest.(check bool) "several hundred cities" true (Array.length Datasets.Cities.all > 300)

let test_cities_find () =
  let s = Datasets.Cities.find "Singapore" in
  Alcotest.(check string) "country" "Singapore" s.Datasets.Cities.country;
  Alcotest.(check bool) "coastal" true s.Datasets.Cities.coastal;
  Alcotest.check_raises "find absent" Not_found (fun () ->
      ignore (Datasets.Cities.find "Atlantis"))

let test_cities_coordinates_sane () =
  Array.iter
    (fun c ->
      let lat = Geo.Coord.lat c.Datasets.Cities.pos in
      Alcotest.(check bool) "inhabited latitude" true (lat > -60.0 && lat < 75.0);
      Alcotest.(check bool) "positive population" true (c.Datasets.Cities.population_m > 0.0))
    Datasets.Cities.all

let test_cities_continent_labels_match_geometry () =
  (* The labeled continent should match the polygon assignment for the vast
     majority of cities (coastal cities may sit outside coarse outlines). *)
  let total = Array.length Datasets.Cities.all in
  let agree =
    Array.fold_left
      (fun acc c ->
        let pos = c.Datasets.Cities.pos and label = c.Datasets.Cities.continent in
        (* An offshore city (the polygon says ocean) is tolerated. *)
        if not (Geo.Region.on_land pos) then acc + 1
        else if Geo.Region.equal_continent (Geo.Region.continent_of_nearest pos) label then acc + 1
        else acc)
      0 Datasets.Cities.all
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d agree" agree total)
    true
    (float_of_int agree /. float_of_int total > 0.9)

let test_cities_in_country () =
  Alcotest.(check bool) "many US cities" true
    (Array.length (Datasets.Cities.in_country "United States") > 50);
  Alcotest.(check int) "unknown country" 0 (Array.length (Datasets.Cities.in_country "Narnia"))

(* --- Population --- *)

let test_population_shares_sum_to_one () =
  let total = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 Datasets.Population.band_shares in
  check_close 1e-6 "sum 1" 1.0 total

let test_population_fraction_above_40 () =
  (* Paper: only 16% of the world population is above |40 deg|. *)
  let f = pct_above (Datasets.Population.latitude_weights ~bin_deg:2.0) 40.0 /. 100.0 in
  Alcotest.(check bool) (Printf.sprintf "%.3f in [0.13, 0.19]" f) true (f > 0.13 && f < 0.19)

let test_population_northern_hemisphere_dominates () =
  let north = Datasets.Population.share_between ~lat_lo:0.0 ~lat_hi:90.0 in
  Alcotest.(check bool) "85-90% north" true (north > 0.82 && north < 0.93)

let test_population_share_between_validation () =
  Alcotest.check_raises "inverted"
    (Invalid_argument "Population.share_between: inverted interval") (fun () ->
      ignore (Datasets.Population.share_between ~lat_lo:10.0 ~lat_hi:0.0))

let test_population_latitude_weights_partition () =
  let ws = Datasets.Population.latitude_weights ~bin_deg:2.0 in
  Alcotest.(check int) "90 bins" 90 (List.length ws);
  check_close 1e-6 "weights sum to 1" 1.0 (List.fold_left (fun a (_, w) -> a +. w) 0.0 ws)

(* --- Submarine --- *)

let test_submarine_counts () =
  let net = Lazy.force submarine in
  Alcotest.(check int) "1241 landing points" Datasets.Submarine.target_landing_points
    (Infra.Network.nb_nodes net);
  Alcotest.(check int) "470 cables" Datasets.Submarine.target_cables
    (Infra.Network.nb_cables net)

let test_submarine_length_quantiles () =
  (* Paper: median 775 km, p99 28,000 km, max 39,000 km. *)
  let net = Lazy.force submarine in
  let lengths = Infra.Network.cable_lengths net in
  let median = Stormsim.Stats.median lengths in
  let p99 = Stormsim.Stats.percentile lengths ~p:99.0 in
  let max_l = List.fold_left Float.max 0.0 lengths in
  Alcotest.(check bool) (Printf.sprintf "median %.0f in [500, 1200]" median) true
    (median > 500.0 && median < 1200.0);
  Alcotest.(check bool) (Printf.sprintf "p99 %.0f in [20000, 39000]" p99) true
    (p99 >= 20000.0 && p99 <= 39000.0);
  check_close 1e-9 "max is SEA-ME-WE 3" 39000.0 max_l

let test_submarine_endpoint_skew () =
  (* Paper: 31% of submarine endpoints above |40 deg|. *)
  let net = Lazy.force submarine in
  let lats = Infra.Network.endpoint_latitudes net in
  let f = pct_above lats 40.0 in
  Alcotest.(check bool) (Printf.sprintf "%.1f%% in [26, 36]" f) true (f > 26.0 && f < 36.0)

let test_submarine_one_hop_extension () =
  (* Paper: another ~14% of endpoints are one hop from the vulnerable zone. *)
  let net = Lazy.force submarine in
  let one_hop = Infra.Network.one_hop_endpoints net ~threshold:40.0 in
  let f = 100.0 *. float_of_int (List.length one_hop) /. float_of_int (Infra.Network.nb_nodes net) in
  Alcotest.(check bool) (Printf.sprintf "%.1f%% in [8, 20]" f) true (f > 8.0 && f < 20.0)

let test_submarine_connected () =
  let net = Lazy.force submarine in
  let g, _ = Infra.Network.to_graph net in
  Alcotest.(check bool) "single fabric" true (Netgraph.Traversal.is_connected g)

let test_submarine_mean_repeaters () =
  (* Paper: 22.3 repeaters per cable at 150 km spacing. *)
  let net = Lazy.force submarine in
  let m = Infra.Network.mean_repeaters_per_cable net ~spacing_km:150.0 in
  Alcotest.(check bool) (Printf.sprintf "%.1f in [15, 28]" m) true (m > 15.0 && m < 28.0)

let test_submarine_real_cables_present () =
  let net = Lazy.force submarine in
  List.iter
    (fun city ->
      match Datasets.Submarine.hub_node net city with
      | Some _ -> ()
      | None -> Alcotest.fail (city ^ " missing"))
    [ "Singapore"; "Shanghai"; "Fortaleza"; "Bude"; "Honolulu"; "Mumbai"; "Sydney" ]

let test_submarine_shanghai_cables_long () =
  (* Paper: every cable landing at Shanghai proper is >= 28,000 km. *)
  let net = Lazy.force submarine in
  match Datasets.Submarine.hub_node net "Shanghai" with
  | None -> Alcotest.fail "no Shanghai node"
  | Some id ->
      let cables = Infra.Network.cables_at net id in
      Alcotest.(check bool) "has cables" true (List.length cables >= 2);
      List.iter
        (fun (c : Infra.Cable.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %.0f km >= 28000" c.Infra.Cable.name c.Infra.Cable.length_km)
            true
            (c.Infra.Cable.length_km >= 28000.0))
        cables

let test_submarine_ellalink_vs_columbus () =
  (* Paper: Ellalink (Brazil-Portugal) is 6,200 km; Florida-Portugal is
     9,833 km — the asymmetry behind Brazil's resilience. *)
  let net = Lazy.force submarine in
  let find_cable name =
    let rec scan i =
      if i >= Infra.Network.nb_cables net then None
      else
        let c = Infra.Network.cable net i in
        if c.Infra.Cable.name = name then Some c else scan (i + 1)
    in
    scan 0
  in
  match (find_cable "Ellalink", find_cable "Columbus-III") with
  | Some e, Some c ->
      check_close 1.0 "ellalink" 6200.0 e.Infra.Cable.length_km;
      check_close 1.0 "columbus" 9833.0 c.Infra.Cable.length_km
  | _ -> Alcotest.fail "named cables missing"

let test_submarine_deterministic () =
  let a = Datasets.Submarine.build ~seed:7 () in
  let b = Datasets.Submarine.build ~seed:7 () in
  Alcotest.(check int) "same cable count" (Infra.Network.nb_cables a)
    (Infra.Network.nb_cables b);
  Alcotest.(check (float 1e-9)) "same total length"
    (List.fold_left ( +. ) 0.0 (Infra.Network.cable_lengths a))
    (List.fold_left ( +. ) 0.0 (Infra.Network.cable_lengths b))

let test_submarine_nodes_in_country () =
  let net = Lazy.force submarine in
  Alcotest.(check bool) "US landings" true
    (List.length (Datasets.Submarine.nodes_in_country net "United States") > 20);
  Alcotest.(check (list int)) "landlocked none" []
    (Datasets.Submarine.nodes_in_country net "Mongolia")

(* --- Intertubes --- *)

let test_intertubes_counts () =
  let net = Lazy.force intertubes in
  Alcotest.(check int) "273 nodes" Datasets.Intertubes.target_nodes (Infra.Network.nb_nodes net);
  Alcotest.(check int) "542 links" Datasets.Intertubes.target_links (Infra.Network.nb_cables net)

let test_intertubes_contiguous_us () =
  let net = Lazy.force intertubes in
  for i = 0 to Infra.Network.nb_nodes net - 1 do
    let pos = Infra.Network.node_coord net i in
    let lat = Geo.Coord.lat pos and lon = Geo.Coord.lon pos in
    if not (lat > 24.0 && lat < 50.0 && lon > -125.5 && lon < -66.0) then
      Alcotest.fail (Printf.sprintf "node %d outside contiguous US (%f, %f)" i lat lon)
  done

let test_intertubes_endpoint_skew () =
  (* Paper: 40% of Intertubes endpoints above 40 deg N. *)
  let net = Lazy.force intertubes in
  let f = pct_above (Infra.Network.endpoint_latitudes net) 40.0 in
  Alcotest.(check bool) (Printf.sprintf "%.1f%% in [33, 48]" f) true (f > 33.0 && f < 48.0)

let test_intertubes_unrepeatered_share () =
  (* Paper: 258/542 conduits need no repeater at 150 km. *)
  let net = Lazy.force intertubes in
  let none = Infra.Network.cables_without_repeaters net ~spacing_km:150.0 in
  Alcotest.(check bool) (Printf.sprintf "%d in [140, 320]" none) true
    (none >= 140 && none <= 320)

let test_intertubes_mean_repeaters () =
  (* Paper: 1.7 repeaters per conduit at 150 km. *)
  let net = Lazy.force intertubes in
  let m = Infra.Network.mean_repeaters_per_cable net ~spacing_km:150.0 in
  Alcotest.(check bool) (Printf.sprintf "%.2f in [1.0, 3.0]" m) true (m > 1.0 && m < 3.0)

let test_intertubes_all_land_cables () =
  let net = Lazy.force intertubes in
  for i = 0 to Infra.Network.nb_cables net - 1 do
    let c = Infra.Network.cable net i in
    if c.Infra.Cable.kind <> Infra.Cable.Land_fiber then Alcotest.fail "submarine in intertubes"
  done

(* --- ITU --- *)

let test_itu_scaled_counts () =
  let net = Lazy.force itu_small in
  let nodes = Infra.Network.nb_nodes net and links = Infra.Network.nb_cables net in
  Alcotest.(check bool) "nodes ~ 1131" true (abs (nodes - 1131) < 60);
  Alcotest.(check bool) "links ~ 1174" true (abs (links - 1174) < 60)

let test_itu_full_scale_targets () =
  Alcotest.(check int) "11314" 11314 Datasets.Itu.target_nodes;
  Alcotest.(check int) "11737" 11737 Datasets.Itu.target_links

let test_itu_mostly_unrepeatered () =
  (* Paper: 8443/11737 (72%) of ITU links need no repeater at 150 km. *)
  let net = Lazy.force itu_small in
  let frac =
    float_of_int (Infra.Network.cables_without_repeaters net ~spacing_km:150.0)
    /. float_of_int (Infra.Network.nb_cables net)
  in
  Alcotest.(check bool) (Printf.sprintf "%.2f in [0.5, 0.85]" frac) true
    (frac > 0.5 && frac < 0.85)

let test_itu_mean_repeaters_below_intertubes () =
  (* Paper ordering: ITU 0.63 < Intertubes 1.7 repeaters per cable. *)
  let itu = Lazy.force itu_small and it = Lazy.force intertubes in
  Alcotest.(check bool) "itu < intertubes" true
    (Infra.Network.mean_repeaters_per_cable itu ~spacing_km:150.0
    < Infra.Network.mean_repeaters_per_cable it ~spacing_km:150.0)

let test_itu_scale_validation () =
  Alcotest.check_raises "scale 0" (Invalid_argument "Itu.build: scale outside (0, 1]")
    (fun () -> ignore (Datasets.Itu.build ~scale:0.0 ()))

(* --- CAIDA --- *)

let test_caida_counts () =
  Alcotest.(check int) "61448 target" 61448 Datasets.Caida.target_ases;
  Alcotest.(check int) "requested count" 6000 (Array.length (Lazy.force ases))

let test_caida_spread_quantiles () =
  (* Paper (Fig. 9b): median 1.723 deg, p90 18.263 deg. *)
  let cdf = Datasets.Caida.spread_cdf (Lazy.force ases) in
  let q p = fst (List.find (fun (_, f) -> f >= p) cdf) in
  let med = q 0.5 and p90 = q 0.9 in
  Alcotest.(check bool) (Printf.sprintf "median %.2f in [1.2, 2.4]" med) true
    (med > 1.2 && med < 2.4);
  Alcotest.(check bool) (Printf.sprintf "p90 %.1f in [13, 24]" p90) true
    (p90 > 13.0 && p90 < 24.0)

let test_caida_reach_above_40 () =
  (* Paper (Fig. 9a): 57% of ASes have presence above |40 deg|. *)
  let r = 100.0 *. Datasets.Caida.reach_above (Lazy.force ases) ~threshold:40.0 in
  Alcotest.(check bool) (Printf.sprintf "%.1f%% in [45, 65]" r) true (r > 45.0 && r < 65.0)

let test_caida_router_skew () =
  (* Paper (Fig. 4b): 38% of routers above |40 deg|. *)
  let lats = Datasets.Caida.router_latitudes (Lazy.force ases) in
  let above = Array.fold_left (fun a l -> if Float.abs l > 40.0 then a + 1 else a) 0 lats in
  let f = 100.0 *. float_of_int above /. float_of_int (Array.length lats) in
  Alcotest.(check bool) (Printf.sprintf "%.1f%% in [30, 50]" f) true (f > 30.0 && f < 50.0)

let test_caida_reach_monotone () =
  let a = Lazy.force ases in
  let r20 = Datasets.Caida.reach_above a ~threshold:20.0 in
  let r60 = Datasets.Caida.reach_above a ~threshold:60.0 in
  Alcotest.(check bool) "monotone decreasing" true (r20 >= r60)

let test_caida_spread_consistency () =
  Array.iter
    (fun a ->
      let lats = a.Datasets.Caida.router_lats in
      let lo = Array.fold_left Float.min lats.(0) lats in
      let hi = Array.fold_left Float.max lats.(0) lats in
      Alcotest.(check (float 1e-9)) "spread = hi - lo" (hi -. lo) a.Datasets.Caida.spread_deg)
    (Array.sub (Lazy.force ases) 0 200)

let test_caida_validation () =
  Alcotest.check_raises "zero ases" (Invalid_argument "Caida.build: non-positive AS count")
    (fun () -> ignore (Datasets.Caida.build ~ases:0 ()))

(* --- DNS roots --- *)

let test_dns_counts () =
  let instances = Lazy.force dns in
  Alcotest.(check int) "1076 instances" Datasets.Dns_roots.target_instances
    (Array.length instances);
  let letters =
    Array.to_list instances
    |> List.map (fun i -> i.Datasets.Dns_roots.letter)
    |> List.sort_uniq Char.compare
  in
  Alcotest.(check int) "13 letters" 13 (List.length letters)

let test_dns_letter_counts_match () =
  let instances = Lazy.force dns in
  List.iter
    (fun (letter, expected) ->
      let n =
        Array.fold_left
          (fun a i -> if i.Datasets.Dns_roots.letter = letter then a + 1 else a)
          0 instances
      in
      Alcotest.(check int) (Printf.sprintf "letter %c" letter) expected n)
    Datasets.Dns_roots.letter_counts

let test_dns_widely_distributed () =
  (* Paper: DNS roots present on all (inhabited) continents. *)
  let per = Datasets.Dns_roots.per_continent (Lazy.force dns) in
  Alcotest.(check bool) ">= 5 continents" true (List.length per >= 5)

let test_dns_latitude_moderate () =
  let f = pct_above (Datasets.Dns_roots.latitudes (Lazy.force dns)) 40.0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f%% in [30, 48]" f) true (f > 30.0 && f < 48.0)

(* --- IXP --- *)

let test_ixp_counts () =
  Alcotest.(check int) "1026 IXPs" Datasets.Ixp.target_count (Array.length (Lazy.force ixps))

let test_ixp_skew () =
  (* Paper (Fig. 4b): 43% of IXPs above |40 deg|. *)
  let f = pct_above (Datasets.Ixp.latitudes (Lazy.force ixps)) 40.0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f%% in [35, 50]" f) true (f > 35.0 && f < 50.0)

(* --- Data centers --- *)

let test_dc_fleet_sizes () =
  Alcotest.(check bool) "google fleet bigger" true
    (List.length Datasets.Datacenters.google > List.length Datasets.Datacenters.facebook)

let test_dc_google_more_continents () =
  (* Paper: Google spreads over 5 continents, Facebook has no African or
     South American hyperscale site. *)
  let g = Datasets.Datacenters.continents_covered Datasets.Datacenters.Google in
  let f = Datasets.Datacenters.continents_covered Datasets.Datacenters.Facebook in
  Alcotest.(check bool) "google >= 5" true (List.length g >= 5);
  Alcotest.(check bool) "facebook <= 3" true (List.length f <= 3);
  Alcotest.(check bool) "facebook lacks South America" true
    (not (List.exists (Geo.Region.equal_continent Geo.Region.South_america) f))

let test_dc_google_wider_spread () =
  Alcotest.(check bool) "google latitude spread larger" true
    (Datasets.Datacenters.latitude_spread Datasets.Datacenters.Google
    > Datasets.Datacenters.latitude_spread Datasets.Datacenters.Facebook)

let test_dc_singapore_site () =
  Alcotest.(check bool) "google in singapore" true
    (List.exists
       (fun s -> s.Datasets.Datacenters.country = "Singapore")
       Datasets.Datacenters.google)

(* --- Rng (shared by generators) --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independence () =
  let parent = Rng.create 1 in
  let c1 = Rng.split parent and c2 = Rng.split parent in
  let s1 = List.init 20 (fun _ -> Rng.int c1 1000) in
  let s2 = List.init 20 (fun _ -> Rng.int c2 1000) in
  Alcotest.(check bool) "different streams" true (s1 <> s2)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7);
    let f = Rng.uniform rng 2.0 5.0 in
    Alcotest.(check bool) "uniform in range" true (f >= 2.0 && f < 5.0)
  done

let test_rng_validation () =
  let rng = Rng.create 4 in
  Alcotest.check_raises "int bound" (Invalid_argument "Rng.int: bound <= 0") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "pareto xmin" (Invalid_argument "Rng.pareto: xmin <= 0") (fun () ->
      ignore (Rng.pareto rng ~xmin:0.0 ~alpha:1.0));
  Alcotest.check_raises "empty choice" (Invalid_argument "Rng.choice: empty array")
    (fun () -> ignore (Rng.choice rng [||]))

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli rng ~p:0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli rng ~p:1.0)
  done

let test_rng_weighted_choice () =
  let rng = Rng.create 6 in
  for _ = 1 to 50 do
    Alcotest.(check string) "zero-weight never picked" "b"
      (Rng.weighted_sampler [| ("a", 0.0); ("b", 1.0) |] rng)
  done

(* --- Dataset goldens ---

   The generators are seeded, so every dataset is a fixed sequence of
   bytes.  Each golden is the MD5 of a canonical text dump that spells
   every field an analysis can read, floats as %.17g, so a one-ulp move
   anywhere in a build changes the hash.  A speed-up to a generator must
   leave all of these unchanged. *)

let hex_of_dump f =
  let b = Buffer.create 65536 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_pos b p = Printf.bprintf b " %.17g %.17g" (Geo.Coord.lat p) (Geo.Coord.lon p)

let network_digest net =
  hex_of_dump (fun b ->
      for i = 0 to Infra.Network.nb_nodes net - 1 do
        let n = Infra.Network.node net i in
        Printf.bprintf b "node %d %S %S" n.Infra.Network.id n.Infra.Network.name
          n.Infra.Network.country;
        add_pos b n.Infra.Network.pos;
        Buffer.add_char b '\n'
      done;
      for i = 0 to Infra.Network.nb_cables net - 1 do
        let c = Infra.Network.cable net i in
        Printf.bprintf b "cable %d %S %s [%s] %.17g %.17g\n" c.Infra.Cable.id
          c.Infra.Cable.name
          (Infra.Cable.kind_to_string c.Infra.Cable.kind)
          (String.concat "," (List.map string_of_int c.Infra.Cable.landings))
          c.Infra.Cable.length_km c.Infra.Cable.max_abs_lat
      done)

let caida_digest ases =
  hex_of_dump (fun b ->
      Array.iter
        (fun (a : Datasets.Caida.asys) ->
          Printf.bprintf b "as %d" a.asn;
          add_pos b a.home;
          Printf.bprintf b " %d [" a.router_count;
          Array.iter (fun l -> Printf.bprintf b " %.17g" l) a.router_lats;
          Printf.bprintf b " ] %.17g\n" a.spread_deg)
        ases)

let dns_digest insts =
  hex_of_dump (fun b ->
      Array.iter
        (fun (i : Datasets.Dns_roots.instance) ->
          Printf.bprintf b "root %c %S" i.letter i.city;
          add_pos b i.pos;
          Buffer.add_char b '\n')
        insts)

let ixp_digest ixps =
  hex_of_dump (fun b ->
      Array.iter
        (fun (x : Datasets.Ixp.t) ->
          Printf.bprintf b "ixp %S %S" x.name x.city;
          add_pos b x.pos;
          Buffer.add_char b '\n')
        ixps)

(* (dataset, seed, speed, digest).  Read from the generators as they stood
   before the weighted sampler, the array-backed Grid_index and the
   union-find stitch; those changes had to reproduce them exactly. *)
let dataset_goldens =
  let build name seed =
    match name with
    | "submarine" -> network_digest (Datasets.Submarine.build ~seed ())
    | "intertubes" -> network_digest (Datasets.Intertubes.build ~seed ())
    | "itu-0.05" -> network_digest (Datasets.Itu.build ~seed ~scale:0.05 ())
    | "itu-0.3" -> network_digest (Datasets.Itu.build ~seed ~scale:0.3 ())
    | "itu-1.0" -> network_digest (Datasets.Itu.build ~seed ~scale:1.0 ())
    | "caida-8000" -> caida_digest (Datasets.Caida.build ~seed ~ases:8000 ())
    | "dns" -> dns_digest (Datasets.Dns_roots.build ~seed ())
    | "ixp" -> ixp_digest (Datasets.Ixp.build ~seed ())
    | _ -> invalid_arg name
  in
  List.map
    (fun (name, seed, speed, digest) ->
      Alcotest.test_case (Printf.sprintf "%s seed %d" name seed) speed (fun () ->
          Alcotest.(check string) name digest (build name seed)))
    [ ("submarine", 42, `Quick, "6335f5a4b0dea6bdd6a22fffaf8a7e65");
      ("submarine", 311, `Quick, "9d0b96f6d11c9ad958523d0496ca1fa5");
      ("intertubes", 42, `Quick, "29e80ffcd30c924135ff1fef94b098e3");
      ("intertubes", 311, `Quick, "4c5150b43593f312ac9314b7b2e484c2");
      ("itu-0.05", 42, `Quick, "e5d578407c4eef0e9cf7799e6597005e");
      ("itu-0.05", 311, `Quick, "511374c57a18603a8c012931a3df3f90");
      ("itu-0.3", 42, `Quick, "a1e12a4eaac47b3e971a8e486e83caf2");
      ("itu-0.3", 311, `Quick, "fbfb12453f2ccda7893fdf6db8490ea7");
      ("itu-1.0", 42, `Slow, "6a0394d669c37e3e1d0b6c8ea8828c16");
      ("itu-1.0", 311, `Slow, "ebad3bf5d523de383ec308e073894448");
      ("caida-8000", 42, `Quick, "6f9bb2ad55f45aa4da60e045fd473255");
      ("caida-8000", 311, `Quick, "9071eaeb889327383e02467c89868792");
      ("dns", 42, `Quick, "413a2ef1430c5bc4f4c9c7840a49df55");
      ("dns", 311, `Quick, "d95fc327864a88540a579c12fb321e04");
      ("ixp", 42, `Quick, "5823d74c9a26154e75172b43df5dca3d");
      ("ixp", 311, `Quick, "10fba7315304b96c76b07a564516a488") ]

(* --- QCheck --- *)

let prop_rng_normal_mean =
  QCheck.Test.make ~name:"normal sample mean near mu" ~count:10
    (QCheck.float_range (-5.0) 5.0)
    (fun mu ->
      let rng = Rng.create (int_of_float (mu *. 1000.0)) in
      let n = 2000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. Rng.normal rng ~mu ~sigma:1.0
      done;
      Float.abs ((!sum /. float_of_int n) -. mu) < 0.15)

let prop_rng_pareto_above_xmin =
  QCheck.Test.make ~name:"pareto >= xmin" ~count:100
    (QCheck.float_range 0.5 100.0)
    (fun xmin ->
      let rng = Rng.create (int_of_float xmin) in
      let v = Rng.pareto rng ~xmin ~alpha:1.5 in
      v >= xmin)

(* The weighted pick as it stood before the sampler: sum every weight,
   draw once, scan the running sums.  The oracle for
   [Rng.weighted_sampler]. *)
let scan_weighted_choice t a =
  if Array.length a = 0 then invalid_arg "scan: empty array";
  let total =
    Array.fold_left
      (fun acc (_, w) ->
        if w < 0.0 then invalid_arg "scan: negative weight";
        acc +. w)
      0.0 a
  in
  if total <= 0.0 then invalid_arg "scan: all-zero weights";
  let last_positive =
    let rec find i = if snd a.(i) > 0.0 then i else find (i - 1) in
    find (Array.length a - 1)
  in
  let x = Rng.float t total in
  let rec scan i acc =
    if i = last_positive then fst a.(i)
    else
      let acc = acc +. snd a.(i) in
      if x < acc then fst a.(i) else scan (i + 1) acc
  in
  scan 0 0.0

(* Weight tables with zeros, trailing zeros, a single positive entry and
   magnitudes from 1e-300 to 1e300, plus invalid ones: empty, a negative
   weight, all zeros. *)
let weights_of_seed seed =
  let rng = Rng.create seed in
  let n = Rng.int rng 40 in
  let magnitude () =
    match Rng.int rng 4 with
    | 0 -> Rng.uniform rng 0.0 1.0
    | 1 -> Rng.uniform rng 1.0 10.0 *. (10.0 ** float_of_int (Rng.int_in rng (-300) 300))
    | 2 -> Rng.uniform rng 1.0 10.0 *. (10.0 ** float_of_int (Rng.int_in rng (-5) 5))
    | _ -> float_of_int (Rng.int rng 4)
  in
  let w =
    match Rng.int rng 6 with
    | 0 -> Array.make n 0.0
    | 1 when n > 0 ->
        let w = Array.make n 0.0 in
        w.(Rng.int rng n) <- magnitude ();
        w
    | 2 when n > 0 ->
        let w = Array.init n (fun _ -> magnitude ()) in
        w.(Rng.int rng n) <- -.Rng.uniform rng 0.0 1.0;
        w
    | _ ->
        let w = Array.init n (fun _ -> if Rng.bernoulli rng ~p:0.3 then 0.0 else magnitude ()) in
        let zeros = Rng.int rng (n + 1) in
        Array.fill w (n - zeros) zeros 0.0;
        w
  in
  Array.mapi (fun i x -> (i, x)) w

let prop_weighted_sampler_matches_scan =
  QCheck.Test.make ~name:"weighted_sampler = the old scan, pick and state" ~count:500
    (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let a = weights_of_seed seed in
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      (* SplitMix's output is a bijection of its state. *)
      let same_state t u = Rng.Raw.next_int64 (Rng.copy t) = Rng.Raw.next_int64 (Rng.copy u) in
      let t = Rng.create (seed + 1) in
      match Rng.weighted_sampler a with
      | exception Invalid_argument _ -> raises (fun () -> scan_weighted_choice t a)
      | sample ->
          let u = Rng.copy t in
          List.for_all
            (fun _ ->
              let picked = sample t in
              picked = scan_weighted_choice u a && same_state t u)
            (List.init 20 Fun.id)
          && Rng.weighted_sampler a (Rng.copy t) = scan_weighted_choice (Rng.copy t) a)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rng_normal_mean; prop_rng_pareto_above_xmin; prop_weighted_sampler_matches_scan ]

let () =
  Alcotest.run "datasets"
    [
      ( "cities",
        [ Alcotest.test_case "unique names" `Quick test_cities_unique_names;
          Alcotest.test_case "count" `Quick test_cities_count;
          Alcotest.test_case "find" `Quick test_cities_find;
          Alcotest.test_case "coordinates sane" `Quick test_cities_coordinates_sane;
          Alcotest.test_case "continent labels" `Quick
            test_cities_continent_labels_match_geometry;
          Alcotest.test_case "in_country" `Quick test_cities_in_country ] );
      ( "population",
        [ Alcotest.test_case "shares sum" `Quick test_population_shares_sum_to_one;
          Alcotest.test_case "16% above 40" `Quick test_population_fraction_above_40;
          Alcotest.test_case "north dominates" `Quick
            test_population_northern_hemisphere_dominates;
          Alcotest.test_case "validation" `Quick test_population_share_between_validation;
          Alcotest.test_case "latitude weights" `Quick test_population_latitude_weights_partition ] );
      ( "submarine",
        [ Alcotest.test_case "counts" `Quick test_submarine_counts;
          Alcotest.test_case "length quantiles" `Quick test_submarine_length_quantiles;
          Alcotest.test_case "endpoint skew" `Quick test_submarine_endpoint_skew;
          Alcotest.test_case "one-hop extension" `Quick test_submarine_one_hop_extension;
          Alcotest.test_case "connected" `Quick test_submarine_connected;
          Alcotest.test_case "mean repeaters" `Quick test_submarine_mean_repeaters;
          Alcotest.test_case "real hubs present" `Quick test_submarine_real_cables_present;
          Alcotest.test_case "shanghai long cables" `Quick test_submarine_shanghai_cables_long;
          Alcotest.test_case "ellalink vs columbus" `Quick test_submarine_ellalink_vs_columbus;
          Alcotest.test_case "deterministic" `Quick test_submarine_deterministic;
          Alcotest.test_case "nodes in country" `Quick test_submarine_nodes_in_country ] );
      ( "intertubes",
        [ Alcotest.test_case "counts" `Quick test_intertubes_counts;
          Alcotest.test_case "contiguous US" `Quick test_intertubes_contiguous_us;
          Alcotest.test_case "endpoint skew" `Quick test_intertubes_endpoint_skew;
          Alcotest.test_case "unrepeatered share" `Quick test_intertubes_unrepeatered_share;
          Alcotest.test_case "mean repeaters" `Quick test_intertubes_mean_repeaters;
          Alcotest.test_case "land cables only" `Quick test_intertubes_all_land_cables ] );
      ( "itu",
        [ Alcotest.test_case "scaled counts" `Quick test_itu_scaled_counts;
          Alcotest.test_case "full-scale targets" `Quick test_itu_full_scale_targets;
          Alcotest.test_case "mostly unrepeatered" `Quick test_itu_mostly_unrepeatered;
          Alcotest.test_case "below intertubes" `Quick test_itu_mean_repeaters_below_intertubes;
          Alcotest.test_case "scale validation" `Quick test_itu_scale_validation ] );
      ( "caida",
        [ Alcotest.test_case "counts" `Quick test_caida_counts;
          Alcotest.test_case "spread quantiles" `Quick test_caida_spread_quantiles;
          Alcotest.test_case "reach above 40" `Quick test_caida_reach_above_40;
          Alcotest.test_case "router skew" `Quick test_caida_router_skew;
          Alcotest.test_case "reach monotone" `Quick test_caida_reach_monotone;
          Alcotest.test_case "spread consistency" `Quick test_caida_spread_consistency;
          Alcotest.test_case "validation" `Quick test_caida_validation ] );
      ( "dns",
        [ Alcotest.test_case "counts" `Quick test_dns_counts;
          Alcotest.test_case "letter counts" `Quick test_dns_letter_counts_match;
          Alcotest.test_case "widely distributed" `Quick test_dns_widely_distributed;
          Alcotest.test_case "latitude moderate" `Quick test_dns_latitude_moderate ] );
      ( "ixp",
        [ Alcotest.test_case "counts" `Quick test_ixp_counts;
          Alcotest.test_case "skew" `Quick test_ixp_skew ] );
      ( "datacenters",
        [ Alcotest.test_case "fleet sizes" `Quick test_dc_fleet_sizes;
          Alcotest.test_case "google continents" `Quick test_dc_google_more_continents;
          Alcotest.test_case "google spread" `Quick test_dc_google_wider_spread;
          Alcotest.test_case "singapore site" `Quick test_dc_singapore_site ] );
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "validation" `Quick test_rng_validation;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "weighted choice" `Quick test_rng_weighted_choice ] );
      ("goldens", dataset_goldens);
      ("properties", qcheck_tests);
    ]
