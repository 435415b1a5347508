(* Tests for the Geo library: coordinates, distances, geodesics,
   geomagnetic latitude, latitude bands, regions, spatial index and
   projections. *)

open Geo

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

let nyc = Coord.make ~lat:40.71 ~lon:(-74.01)
let london = Coord.make ~lat:51.51 ~lon:(-0.13)
let sydney = Coord.make ~lat:(-33.87) ~lon:151.21
let singapore = Coord.make ~lat:1.35 ~lon:103.82

(* --- Angle --- *)

let test_deg_rad_roundtrip () =
  check_float "deg->rad->deg" 123.4 (Angle.rad_to_deg (Angle.deg_to_rad 123.4))

let test_normalize_lon_wraps () =
  check_float "190 -> -170" (-170.0) (Angle.normalize_lon 190.0);
  check_float "-190 -> 170" 170.0 (Angle.normalize_lon (-190.0));
  check_float "360 -> 0" 0.0 (Angle.normalize_lon 360.0);
  check_float "180 stays" 180.0 (Angle.normalize_lon 180.0);
  check_float "-180 -> 180" 180.0 (Angle.normalize_lon (-180.0))

let test_angular_diff () =
  check_float "wrap-around" 20.0 (Angle.angular_diff 170.0 (-170.0));
  check_float "simple" 30.0 (Angle.angular_diff 10.0 40.0);
  check_float "identical" 0.0 (Angle.angular_diff 55.0 55.0)

(* --- Coord --- *)

let test_coord_make_valid () =
  let c = Coord.make ~lat:10.0 ~lon:200.0 in
  check_float "lon wrapped" (-160.0) (Coord.lon c);
  check_float "lat kept" 10.0 (Coord.lat c)

let test_coord_make_invalid () =
  Alcotest.check_raises "lat 91" (Coord.Invalid_coordinate "latitude 91.000000 out of [-90, 90]")
    (fun () -> ignore (Coord.make ~lat:91.0 ~lon:0.0));
  Alcotest.check_raises "NaN" (Coord.Invalid_coordinate "non-finite coordinate (nan, 0.000000)")
    (fun () -> ignore (Coord.make ~lat:Float.nan ~lon:0.0))

let test_coord_antipode () =
  (* Antipode distance is half the Earth's circumference. *)
  let a = Coord.make ~lat:(-40.71) ~lon:105.99 in
  check_close 5.0 "antipode distance" (Float.pi *. Distance.earth_radius_km)
    (Distance.haversine_km nyc a)

(* --- Distance --- *)

let test_haversine_known () =
  (* Reference great-circle distances (±0.5%). *)
  let d = Distance.haversine_km nyc london in
  Alcotest.(check bool) "NYC-London ~5570 km" true (d > 5540.0 && d < 5600.0);
  let d2 = Distance.haversine_km sydney singapore in
  Alcotest.(check bool) "Sydney-Singapore ~6300 km" true (d2 > 6250.0 && d2 < 6350.0)

let test_haversine_zero () =
  check_float "self distance" 0.0 (Distance.haversine_km nyc nyc)

let test_haversine_symmetry () =
  check_close 1e-9 "symmetry" (Distance.haversine_km nyc sydney)
    (Distance.haversine_km sydney nyc)

let test_vincenty_close_to_haversine () =
  let h = Distance.haversine_km nyc london and v = Distance.vincenty_km nyc london in
  Alcotest.(check bool) "within 0.6%" true (Float.abs (h -. v) /. v < 0.006)

let test_vincenty_zero () =
  check_float "vincenty self" 0.0 (Distance.vincenty_km nyc nyc)

let test_path_length () =
  check_float "empty" 0.0 (Distance.path_length_km []);
  check_float "single" 0.0 (Distance.path_length_km [ nyc ]);
  let two = Distance.path_length_km [ nyc; london ] in
  check_close 1e-9 "two points" (Distance.haversine_km nyc london) two;
  let three = Distance.path_length_km [ nyc; london; singapore ] in
  check_close 1e-9 "additive" (two +. Distance.haversine_km london singapore) three

(* --- Geodesic --- *)

(* The great-circle midpoint: the middle of a two-step polyline. *)
let midpoint a b = List.nth (Geodesic.waypoints a b ~n:2) 1

let test_intermediate_endpoints () =
  let pts = Geodesic.waypoints nyc london ~n:2 in
  Alcotest.(check bool) "f=0" true (Coord.equal nyc (List.hd pts));
  Alcotest.(check bool) "f=1" true (Coord.equal london (List.nth pts 2))

let test_midpoint_equidistant () =
  let m = midpoint nyc london in
  let d1 = Distance.haversine_km nyc m and d2 = Distance.haversine_km m london in
  check_close 0.5 "equidistant" d1 d2

let test_waypoints_count_and_length () =
  let pts = Geodesic.waypoints nyc sydney ~n:10 in
  Alcotest.(check int) "n+1 points" 11 (List.length pts);
  let direct = Distance.haversine_km nyc sydney in
  let along = Distance.path_length_km pts in
  check_close 1.0 "arc length preserved" direct along

let test_waypoints_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Geodesic.waypoints: n < 1") (fun () ->
      ignore (Geodesic.waypoints nyc london ~n:0))

let test_point_at_km_clamps () =
  let path = Geodesic.waypoints nyc london ~n:8 in
  Alcotest.(check bool) "d=0 is start" true
    (Coord.equal nyc (Geodesic.point_at_km path 0.0));
  Alcotest.(check bool) "d>len is end" true
    (Coord.equal london (Geodesic.point_at_km path 1e9))

let test_point_at_km_midway () =
  let path = Geodesic.waypoints nyc london ~n:50 in
  let total = Distance.path_length_km path in
  let p = Geodesic.point_at_km path (total /. 2.0) in
  check_close 2.0 "halfway point" (total /. 2.0) (Distance.haversine_km nyc p)

let test_positions_along_spacing () =
  let path = Geodesic.waypoints nyc london ~n:50 in
  let total = Distance.path_length_km path in
  let positions = Geodesic.positions_along path ~spacing_km:500.0 in
  Alcotest.(check int) "count" (int_of_float (Float.ceil (total /. 500.0)) - 1)
    (List.length positions);
  List.iteri
    (fun i (d, _) -> check_close 1e-9 "chainage" (float_of_int (i + 1) *. 500.0) d)
    positions

let test_positions_along_short_path () =
  let path = [ nyc; Coord.make ~lat:40.9 ~lon:(-74.0) ] in
  Alcotest.(check int) "no interior positions" 0
    (List.length (Geodesic.positions_along path ~spacing_km:150.0))

(* --- Geomagnetic --- *)

let test_dipole_pole_is_90 () =
  check_close 1e-6 "pole" 90.0
    (Geomagnetic.dipole_latitude (Coord.make ~lat:80.65 ~lon:(-72.68)) (* IGRF-13 2020 *))

let test_dipole_latitude_ranges () =
  List.iter
    (fun c ->
      let l = Geomagnetic.dipole_latitude c in
      Alcotest.(check bool) "in range" true (l >= -90.0 && l <= 90.0))
    [ nyc; london; sydney; singapore ]

let test_dipole_north_atlantic_higher () =
  (* Geomagnetic latitude of the US northeast exceeds its geographic
     latitude (the dipole pole sits over arctic Canada). *)
  Alcotest.(check bool) "NYC geomag > geographic" true
    (Geomagnetic.dipole_latitude nyc > Coord.lat nyc)

(* --- Latband --- *)

let test_tiers () =
  Alcotest.(check bool) "39 low" true (Latband.tier_of_abs_lat 39.0 = Latband.Low);
  Alcotest.(check bool) "40 low (strict)" true (Latband.tier_of_abs_lat 40.0 = Latband.Low);
  Alcotest.(check bool) "41 mid" true (Latband.tier_of_abs_lat 41.0 = Latband.Mid);
  Alcotest.(check bool) "60 mid (strict)" true (Latband.tier_of_abs_lat 60.0 = Latband.Mid);
  Alcotest.(check bool) "61 high" true (Latband.tier_of_abs_lat 61.0 = Latband.High);
  Alcotest.(check bool) "negative symmetric" true (Latband.tier_of_abs_lat (-65.0) = Latband.High)

let test_tier_custom_thresholds () =
  Alcotest.(check bool) "custom" true
    (Latband.tier_of_abs_lat ~mid_threshold:30.0 ~high_threshold:50.0 45.0 = Latband.Mid);
  Alcotest.check_raises "bad thresholds"
    (Invalid_argument "Latband: thresholds must satisfy 0 <= mid <= high") (fun () ->
      ignore (Latband.tier_of_abs_lat ~mid_threshold:50.0 ~high_threshold:30.0 45.0))

let test_histogram_binning () =
  let h = Latband.histogram ~bin_deg:10.0 [ (-89.0, 1.0); (0.5, 2.0); (89.0, 3.0) ] in
  Alcotest.(check int) "18 bins" 18 (Array.length h.Latband.counts);
  check_float "first bin" 1.0 h.Latband.counts.(0);
  check_float "middle bin" 2.0 h.Latband.counts.(9);
  check_float "last bin" 3.0 h.Latband.counts.(17)

let test_histogram_invalid () =
  Alcotest.check_raises "bin must divide"
    (Invalid_argument "Latband.histogram: bin_deg must divide 180") (fun () ->
      ignore (Latband.histogram ~bin_deg:7.0 []))

let test_pdf_normalization () =
  let h = Latband.histogram ~bin_deg:2.0 [ (10.0, 1.0); (50.0, 4.0); (-30.0, 5.0) ] in
  let total = List.fold_left (fun acc (_, d) -> acc +. (d *. 2.0)) 0.0 (Latband.pdf h) in
  check_close 1e-6 "densities integrate to 100%" 100.0 total

let test_pdf_empty () =
  let h = Latband.histogram ~bin_deg:2.0 [] in
  List.iter (fun (_, d) -> check_float "zero density" 0.0 d) (Latband.pdf h)

let test_fraction_above () =
  let items = [ (45.0, 1.0); (-50.0, 1.0); (10.0, 2.0) ] in
  check_close 1e-9 "half above 40" 0.5 (Latband.fraction_above items ~threshold:40.0);
  check_float "none above 80" 0.0 (Latband.fraction_above items ~threshold:80.0);
  check_float "empty" 0.0 (Latband.fraction_above [] ~threshold:40.0)

let test_threshold_curve_monotone () =
  let items = List.init 100 (fun i -> (float_of_int i -. 50.0, 1.0)) in
  let curve = Latband.threshold_curve items in
  let rec decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone decreasing" true (decreasing curve);
  Alcotest.(check int) "10 thresholds" 10 (List.length curve)

(* --- Region --- *)

let test_continent_of_cities () =
  let open Region in
  let checks =
    [ (nyc, North_america); (london, Europe); (sydney, Oceania); (singapore, Asia);
      (Coord.make ~lat:(-23.55) ~lon:(-46.63), South_america);
      (Coord.make ~lat:6.52 ~lon:3.38, Africa);
      (Coord.make ~lat:35.68 ~lon:139.69, Asia);
      (Coord.make ~lat:55.76 ~lon:37.62, Europe) ]
  in
  List.iter
    (fun (c, expected) ->
      if not (on_land c) then Alcotest.fail "no continent for a major city";
      Alcotest.(check string) "continent" (continent_to_string expected)
        (continent_to_string (continent_of_nearest c)))
    checks

let test_ocean_is_not_land () =
  let mid_pacific = Coord.make ~lat:0.0 ~lon:(-150.0) in
  let mid_atlantic = Coord.make ~lat:30.0 ~lon:(-45.0) in
  Alcotest.(check bool) "pacific" false (Region.on_land mid_pacific);
  Alcotest.(check bool) "atlantic" false (Region.on_land mid_atlantic)

let test_continent_of_nearest_total () =
  let mid_pacific = Coord.make ~lat:0.0 ~lon:(-150.0) in
  (* Offshore points always get labeled. *)
  ignore (Region.continent_of_nearest mid_pacific);
  Alcotest.(check bool) "nearest to London is Europe" true
    (Region.continent_of_nearest london = Region.Europe)

let test_polygon_validation () =
  Alcotest.check_raises "too few vertices"
    (Invalid_argument "Region.polygon: fewer than 3 vertices") (fun () ->
      ignore (Region.polygon [ (0.0, 0.0); (1.0, 1.0) ]))

let test_polygon_contains () =
  let square = Region.polygon [ (0.0, 0.0); (0.0, 10.0); (10.0, 10.0); (10.0, 0.0) ] in
  Alcotest.(check bool) "inside" true (Region.contains square (Coord.make ~lat:5.0 ~lon:5.0));
  Alcotest.(check bool) "outside" false (Region.contains square (Coord.make ~lat:15.0 ~lon:5.0))

(* --- Grid_index --- *)

let sample_points =
  List.init 200 (fun i ->
      let lat = Float.rem (float_of_int (i * 37)) 160.0 -. 80.0 in
      let lon = Float.rem (float_of_int (i * 91)) 340.0 -. 170.0 in
      (Coord.make ~lat ~lon, i))

let test_grid_index_within_matches_brute_force () =
  let idx = Grid_index.of_list sample_points in
  let probe = Coord.make ~lat:10.0 ~lon:20.0 in
  let radius = 3000.0 in
  let got =
    Grid_index.within_km idx probe ~radius_km:radius
    |> List.map (fun (_, v, _) -> v)
    |> List.sort Int.compare
  in
  let expected =
    List.filter (fun (c, _) -> Distance.haversine_km probe c <= radius) sample_points
    |> List.map snd |> List.sort Int.compare
  in
  Alcotest.(check (list int)) "same hits" expected got

let test_grid_index_nearest () =
  let idx = Grid_index.of_list sample_points in
  let probe = Coord.make ~lat:45.0 ~lon:(-120.0) in
  match Grid_index.nearest idx probe with
  | None -> Alcotest.fail "no nearest"
  | Some (_, _, d) ->
      let brute =
        List.fold_left
          (fun acc (c, _) -> Float.min acc (Distance.haversine_km probe c))
          Float.infinity sample_points
      in
      check_close 1e-6 "nearest matches brute force" brute d

let test_grid_index_empty_nearest () =
  let idx = Grid_index.of_list [] in
  Alcotest.(check bool) "empty nearest" true (Grid_index.nearest idx nyc = None)

let test_grid_index_size_and_fold () =
  let idx = Grid_index.of_list sample_points in
  Alcotest.(check int) "size" 200 (Grid_index.size idx);
  let sum = Grid_index.fold idx ~init:0 ~f:(fun acc _ v -> acc + v) in
  Alcotest.(check int) "fold visits all" (199 * 200 / 2) sum

let test_grid_index_polar_query () =
  let idx = Grid_index.of_list [ (Coord.make ~lat:89.0 ~lon:0.0, 1) ] in
  let hits = Grid_index.within_km idx (Coord.make ~lat:89.5 ~lon:170.0) ~radius_km:300.0 in
  Alcotest.(check int) "finds near-pole point across longitudes" 1 (List.length hits)

(* The antimeridian and the pole fold into scanned cells: [Coord.make]
   puts longitude -180 at 180 and a pole at latitude 90, keys that once
   fell one past the last column or row, outside every scan. *)
let test_grid_index_antimeridian () =
  let p = Coord.make ~lat:0.0 ~lon:(-180.0) in
  List.iter
    (fun cell_deg ->
      let idx = Grid_index.of_list ~cell_deg [ (p, 1) ] in
      let q = Coord.make ~lat:0.0 ~lon:179.9 in
      (match Grid_index.nearest idx q with
      | Some (_, v, d) ->
          Alcotest.(check int) "nearest across the antimeridian" 1 v;
          check_float "distance" (Distance.haversine_km q p) d
      | None -> Alcotest.fail "nearest is None on a non-empty index");
      Alcotest.(check int) "within 100 km" 1
        (List.length (Grid_index.within_km idx q ~radius_km:100.0));
      Alcotest.(check int) "from the point itself" 1
        (List.length (Grid_index.within_km idx p ~radius_km:0.0)))
    [ 2.0; 5.0; 90.0 ]

let test_grid_index_north_pole () =
  let pole = Coord.make ~lat:90.0 ~lon:0.0 in
  List.iter
    (fun cell_deg ->
      let idx = Grid_index.of_list ~cell_deg [ (pole, 7) ] in
      let q = Coord.make ~lat:89.5 ~lon:(-120.0) in
      (match Grid_index.nearest idx q with
      | Some (_, v, _) -> Alcotest.(check int) "nearest finds the pole" 7 v
      | None -> Alcotest.fail "nearest is None on a non-empty index");
      Alcotest.(check int) "within 100 km" 1
        (List.length (Grid_index.within_km idx q ~radius_km:100.0));
      Alcotest.(check int) "query at the pole" 1
        (List.length (Grid_index.within_km idx pole ~radius_km:0.0)))
    [ 2.0; 5.0; 90.0 ]

let test_grid_index_cell_bounds () =
  List.iter
    (fun cell_deg ->
      Alcotest.check_raises (Printf.sprintf "cell_deg %g" cell_deg)
        (Invalid_argument "Grid_index.create: cell_deg out of [0.25, 90]") (fun () ->
          ignore (Grid_index.of_list ~cell_deg [])))
    [ 0.0; -1.0; 0.01; 90.5; Float.nan ];
  List.iter
    (fun cell_deg ->
      Alcotest.(check int) "empty" 0 (Grid_index.size (Grid_index.of_list ~cell_deg [])))
    [ 0.25; 90.0 ]

let test_grid_index_remove () =
  let a = Coord.make ~lat:10.0 ~lon:10.0 and b = Coord.make ~lat:10.5 ~lon:10.5 in
  let idx = Grid_index.of_list [ (a, 1); (b, 2); (a, 3); (a, 1) ] in
  let values () = List.map (fun (_, v, _) -> v) (Grid_index.within_km idx a ~radius_km:500.0) in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 1 ] (values ());
  Grid_index.remove idx a 1;
  Alcotest.(check (list int)) "earliest match removed" [ 2; 3; 1 ] (values ());
  Grid_index.remove idx b 3;
  Grid_index.remove idx a 9;
  Alcotest.(check (list int)) "no match, no change" [ 2; 3; 1 ] (values ());
  Grid_index.remove idx b 2;
  Grid_index.remove idx a 1;
  Grid_index.remove idx a 3;
  Alcotest.(check int) "size" 0 (Grid_index.size idx);
  Alcotest.(check bool) "nearest on an emptied index" true (Grid_index.nearest idx a = None);
  Grid_index.add idx b 4;
  Alcotest.(check (list int)) "add after remove" [ 4 ] (values ())

(* The index as it stood before the flat-array rewrite, kept as the
   oracle for the rewrite: cells in a [Hashtbl] keyed by [(lat, lon)]
   tuples, and a full [Distance.haversine_km] per scanned entry.  Its
   keys at latitude 90 and longitude 180 lie outside every scan, so the
   properties below generate no point there. *)
module Hashed_grid = struct
  type 'a entry = { pos : Coord.t; value : 'a }

  type 'a t = {
    cell_deg : float;
    cells : (int * int, 'a entry list ref) Hashtbl.t;
    mutable count : int;
  }

  let create ~cell_deg = { cell_deg; cells = Hashtbl.create 256; count = 0 }

  let key t c =
    let lat_i = int_of_float (Float.floor ((Coord.lat c +. 90.0) /. t.cell_deg)) in
    let lon_i = int_of_float (Float.floor ((Coord.lon c +. 180.0) /. t.cell_deg)) in
    (lat_i, lon_i)

  let lon_cells t = int_of_float (Float.ceil (360.0 /. t.cell_deg))
  let lat_cells t = int_of_float (Float.ceil (180.0 /. t.cell_deg))

  let add t pos value =
    let k = key t pos in
    (match Hashtbl.find_opt t.cells k with
    | Some l -> l := { pos; value } :: !l
    | None -> Hashtbl.add t.cells k (ref [ { pos; value } ]));
    t.count <- t.count + 1

  let candidate_cells t c radius_km =
    let lat0, lon0 = key t c in
    let deg_per_km_lat = 1.0 /. 111.19 in
    let dlat_cells =
      1 + int_of_float (Float.ceil (radius_km *. deg_per_km_lat /. t.cell_deg))
    in
    let nlon = lon_cells t and nlat = lat_cells t in
    let cells = ref [] in
    for di = -dlat_cells to dlat_cells do
      let lat_i = lat0 + di in
      if lat_i >= 0 && lat_i < nlat then begin
        let edge1 = Float.abs ((float_of_int lat_i *. t.cell_deg) -. 90.0) in
        let edge2 = Float.abs ((float_of_int (lat_i + 1) *. t.cell_deg) -. 90.0) in
        let band_lat = Float.max edge1 edge2 in
        let cos_lat = Float.max 0.01 (cos (Angle.deg_to_rad band_lat)) in
        let dlon_cells =
          1 + int_of_float (Float.ceil (radius_km *. deg_per_km_lat /. cos_lat /. t.cell_deg))
        in
        if band_lat >= 89.0 || 2 * dlon_cells + 1 >= nlon then
          for lon_i = 0 to nlon - 1 do
            cells := (lat_i, lon_i) :: !cells
          done
        else
          for dj = -dlon_cells to dlon_cells do
            let lon_i = ((lon0 + dj) mod nlon + nlon) mod nlon in
            cells := (lat_i, lon_i) :: !cells
          done
      end
    done;
    !cells

  let within_km t c ~radius_km =
    let acc = ref [] in
    List.iter
      (fun k ->
        match Hashtbl.find_opt t.cells k with
        | None -> ()
        | Some l ->
            List.iter
              (fun e ->
                let d = Distance.haversine_km c e.pos in
                if d <= radius_km then acc := (e.pos, e.value, d) :: !acc)
              !l)
      (candidate_cells t c radius_km);
    !acc

  let nearest t c =
    if t.count = 0 then None
    else
      let rec search radius =
        match within_km t c ~radius_km:radius with
        | [] when radius < 21000.0 -> search (radius *. 2.0)
        | [] -> None
        | hits ->
            Some
              (List.fold_left
                 (fun ((_, _, dbest) as best) ((_, _, d) as hit) ->
                   if d < dbest then hit else best)
                 (List.hd hits) (List.tl hits))
      in
      search 250.0
end

(* One generated case: an index over uniform or clustered points (some
   positions repeated under a new value), query points with radii from 0
   to 25,000 km, and a random order in which to remove entries. *)
type grid_case = {
  cell_deg : float;
  entries : (Coord.t * int) list;  (* insertion order; values distinct *)
  queries : (Coord.t * float) list;
  removal : (Coord.t * int) list;
}

let grid_case_of_seed seed =
  let rng = Rng.create seed in
  let cell_deg = Rng.choice rng [| 2.0; 5.0 |] in
  (* Clear of latitude 90 and longitude 180, the oracle's blind keys. *)
  let point lat lon =
    let c = Coord.make ~lat:(Float.max (-89.999) (Float.min 89.999 lat)) ~lon in
    if Coord.lon c = 180.0 then Coord.make ~lat:(Coord.lat c) ~lon:179.5 else c
  in
  let uniform () = point (Rng.uniform rng (-90.0) 90.0) (Rng.uniform rng (-180.0) 180.0) in
  let n = Rng.int rng 300 in
  let positions =
    if Rng.bool rng then Array.init n (fun _ -> uniform ())
    else
      let centers = Array.init (1 + Rng.int rng 6) (fun _ -> uniform ()) in
      let sigma = Rng.choice rng [| 0.01; 0.5; 3.0 |] in
      Array.init n (fun _ ->
          let c = Rng.choice rng centers in
          point
            (Coord.lat c +. Rng.normal rng ~mu:0.0 ~sigma)
            (Coord.lon c +. Rng.normal rng ~mu:0.0 ~sigma))
  in
  (* Repeat some positions under a new value. *)
  for i = 1 to n - 1 do
    if Rng.bernoulli rng ~p:0.1 then positions.(i) <- positions.(Rng.int rng i)
  done;
  let entries = Array.to_list (Array.mapi (fun i p -> (p, i)) positions) in
  let radius () =
    match Rng.int rng 4 with
    | 0 -> 0.0
    | 1 -> Rng.uniform rng 0.0 300.0
    | 2 -> Rng.uniform rng 0.0 3000.0
    | _ -> Rng.uniform rng 0.0 25000.0
  in
  let queries =
    List.init 8 (fun k ->
        let q = if k mod 2 = 0 && n > 0 then positions.(Rng.int rng n) else uniform () in
        (q, radius ()))
  in
  let order = Array.of_list entries in
  Rng.shuffle rng order;
  let removal = Array.to_list (Array.sub order 0 (Rng.int rng (n + 1))) in
  { cell_deg; entries; queries; removal }

let grid_hits l = List.map (fun (p, v, d) -> (Coord.lat p, Coord.lon p, v, Int64.bits_of_float d)) l

let grid_agrees case idx entries =
  let oracle = Hashed_grid.create ~cell_deg:case.cell_deg in
  List.iter (fun (p, v) -> Hashed_grid.add oracle p v) entries;
  let nearest_of = Option.map (fun (_, v, d) -> (v, Int64.bits_of_float d)) in
  Grid_index.size idx = List.length entries
  && List.sort Int.compare (Grid_index.fold idx ~init:[] ~f:(fun acc _ v -> v :: acc))
     = List.sort Int.compare (List.map snd entries)
  && List.for_all
       (fun (q, radius_km) ->
         grid_hits (Grid_index.within_km idx q ~radius_km)
         = grid_hits (Hashed_grid.within_km oracle q ~radius_km)
         && nearest_of (Grid_index.nearest idx q) = nearest_of (Hashed_grid.nearest oracle q))
       case.queries

let prop_grid_index_matches_oracle =
  QCheck.Test.make ~name:"grid_index = hashed oracle, before and after removals" ~count:150
    (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let case = grid_case_of_seed seed in
      let idx = Grid_index.of_list ~cell_deg:case.cell_deg case.entries in
      grid_agrees case idx case.entries
      &&
      (List.iter (fun (p, v) -> Grid_index.remove idx p v) case.removal;
       let remaining = List.filter (fun e -> not (List.mem e case.removal)) case.entries in
       grid_agrees case idx remaining))

(* --- Projection --- *)

let test_projection_corners () =
  let p = Projection.equirectangular ~width:100 ~height:50 in
  let x, y = Projection.to_xy p (Coord.make ~lat:89.99 ~lon:(-179.99)) in
  Alcotest.(check int) "NW x" 0 x;
  Alcotest.(check int) "NW y" 0 y;
  let x, y = Projection.to_xy p (Coord.make ~lat:(-89.99) ~lon:179.99) in
  Alcotest.(check int) "SE x" 99 x;
  Alcotest.(check int) "SE y" 49 y

let test_projection_roundtrip () =
  let p = Projection.equirectangular ~width:360 ~height:180 in
  let x, y = Projection.to_xy p nyc in
  let c = Projection.of_xy p x y in
  Alcotest.(check bool) "roundtrip within a cell" true
    (Float.abs (Coord.lat c -. Coord.lat nyc) < 1.5
    && Float.abs (Coord.lon c -. Coord.lon nyc) < 1.5)

let test_projection_invalid () =
  Alcotest.check_raises "zero width" (Invalid_argument "Projection: non-positive size")
    (fun () -> ignore (Projection.equirectangular ~width:0 ~height:10))

(* --- QCheck properties --- *)

let arb_lat = QCheck.float_range (-90.0) 90.0
let arb_lon = QCheck.float_range (-500.0) 500.0

let prop_normalize_lon_in_range =
  QCheck.Test.make ~name:"normalize_lon lands in (-180, 180]" ~count:500 arb_lon (fun lon ->
      let l = Angle.normalize_lon lon in
      l > -180.0 && l <= 180.0)

let prop_haversine_bounds =
  QCheck.Test.make ~name:"haversine within [0, pi*R]" ~count:300
    QCheck.(quad arb_lat arb_lon arb_lat arb_lon)
    (fun (la1, lo1, la2, lo2) ->
      let a = Coord.make ~lat:la1 ~lon:lo1 and b = Coord.make ~lat:la2 ~lon:lo2 in
      let d = Distance.haversine_km a b in
      d >= 0.0 && d <= (Float.pi *. Distance.earth_radius_km) +. 1.0)

let prop_haversine_triangle =
  QCheck.Test.make ~name:"haversine triangle inequality" ~count:200
    QCheck.(triple (pair arb_lat arb_lon) (pair arb_lat arb_lon) (pair arb_lat arb_lon))
    (fun ((a1, o1), (a2, o2), (a3, o3)) ->
      let a = Coord.make ~lat:a1 ~lon:o1
      and b = Coord.make ~lat:a2 ~lon:o2
      and c = Coord.make ~lat:a3 ~lon:o3 in
      Distance.haversine_km a c
      <= Distance.haversine_km a b +. Distance.haversine_km b c +. 1e-6)

let prop_intermediate_on_segment =
  QCheck.Test.make ~name:"geodesic intermediate splits distance" ~count:200
    QCheck.(triple (pair arb_lat arb_lon) (pair arb_lat arb_lon) (float_range 0.0 1.0))
    (fun ((a1, o1), (a2, o2), f) ->
      let a = Coord.make ~lat:a1 ~lon:o1 and b = Coord.make ~lat:a2 ~lon:o2 in
      let total = Distance.haversine_km a b in
      QCheck.assume (total > 1.0 && total < 19000.0);
      let m = Geodesic.point_at_km [ a; b ] (f *. total) in
      let d1 = Distance.haversine_km a m and d2 = Distance.haversine_km m b in
      Float.abs (d1 +. d2 -. total) < 1.0)

let prop_tier_total =
  QCheck.Test.make ~name:"every latitude gets a tier" ~count:500 arb_lat (fun lat ->
      match Latband.tier_of_abs_lat lat with
      | Latband.High | Latband.Mid | Latband.Low -> true)

let prop_histogram_preserves_weight =
  QCheck.Test.make ~name:"histogram preserves total weight" ~count:200
    QCheck.(small_list (pair arb_lat (float_range 0.0 10.0)))
    (fun items ->
      let h = Latband.histogram ~bin_deg:5.0 items in
      let total_in = List.fold_left (fun a (_, w) -> a +. w) 0.0 items in
      let total_out = Array.fold_left ( +. ) 0.0 h.Latband.counts in
      Float.abs (total_in -. total_out) < 1e-9)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_normalize_lon_in_range; prop_haversine_bounds; prop_haversine_triangle;
      prop_intermediate_on_segment; prop_tier_total; prop_histogram_preserves_weight ]

let () =
  Alcotest.run "geo"
    [
      ( "angle",
        [ Alcotest.test_case "deg/rad roundtrip" `Quick test_deg_rad_roundtrip;
          Alcotest.test_case "normalize_lon wraps" `Quick test_normalize_lon_wraps;
          Alcotest.test_case "angular_diff" `Quick test_angular_diff ] );
      ( "coord",
        [ Alcotest.test_case "make wraps lon" `Quick test_coord_make_valid;
          Alcotest.test_case "make rejects bad input" `Quick test_coord_make_invalid;
          Alcotest.test_case "antipode" `Quick test_coord_antipode ] );
      ( "distance",
        [ Alcotest.test_case "known distances" `Quick test_haversine_known;
          Alcotest.test_case "zero distance" `Quick test_haversine_zero;
          Alcotest.test_case "symmetry" `Quick test_haversine_symmetry;
          Alcotest.test_case "vincenty vs haversine" `Quick test_vincenty_close_to_haversine;
          Alcotest.test_case "vincenty zero" `Quick test_vincenty_zero;
          Alcotest.test_case "path length" `Quick test_path_length ] );
      ( "geodesic",
        [ Alcotest.test_case "intermediate endpoints" `Quick test_intermediate_endpoints;
          Alcotest.test_case "midpoint equidistant" `Quick test_midpoint_equidistant;
          Alcotest.test_case "waypoints count+length" `Quick test_waypoints_count_and_length;
          Alcotest.test_case "waypoints invalid" `Quick test_waypoints_invalid;
          Alcotest.test_case "point_at_km clamps" `Quick test_point_at_km_clamps;
          Alcotest.test_case "point_at_km midway" `Quick test_point_at_km_midway;
          Alcotest.test_case "positions_along spacing" `Quick test_positions_along_spacing;
          Alcotest.test_case "positions_along short path" `Quick
            test_positions_along_short_path ] );
      ( "geomagnetic",
        [ Alcotest.test_case "dipole pole" `Quick test_dipole_pole_is_90;
          Alcotest.test_case "latitude in range" `Quick test_dipole_latitude_ranges;
          Alcotest.test_case "north atlantic anomaly" `Quick test_dipole_north_atlantic_higher ] );
      ( "latband",
        [ Alcotest.test_case "tier boundaries" `Quick test_tiers;
          Alcotest.test_case "custom thresholds" `Quick test_tier_custom_thresholds;
          Alcotest.test_case "histogram binning" `Quick test_histogram_binning;
          Alcotest.test_case "histogram invalid" `Quick test_histogram_invalid;
          Alcotest.test_case "pdf normalization" `Quick test_pdf_normalization;
          Alcotest.test_case "pdf empty" `Quick test_pdf_empty;
          Alcotest.test_case "fraction above" `Quick test_fraction_above;
          Alcotest.test_case "threshold curve monotone" `Quick test_threshold_curve_monotone ] );
      ( "region",
        [ Alcotest.test_case "continents of cities" `Quick test_continent_of_cities;
          Alcotest.test_case "ocean is not land" `Quick test_ocean_is_not_land;
          Alcotest.test_case "nearest is total" `Quick test_continent_of_nearest_total;
          Alcotest.test_case "polygon validation" `Quick test_polygon_validation;
          Alcotest.test_case "polygon contains" `Quick test_polygon_contains ] );
      ( "grid_index",
        [ Alcotest.test_case "within matches brute force" `Quick
            test_grid_index_within_matches_brute_force;
          Alcotest.test_case "nearest" `Quick test_grid_index_nearest;
          Alcotest.test_case "empty nearest" `Quick test_grid_index_empty_nearest;
          Alcotest.test_case "size and fold" `Quick test_grid_index_size_and_fold;
          Alcotest.test_case "polar query" `Quick test_grid_index_polar_query;
          Alcotest.test_case "antimeridian key" `Quick test_grid_index_antimeridian;
          Alcotest.test_case "north pole key" `Quick test_grid_index_north_pole;
          Alcotest.test_case "cell size bounds" `Quick test_grid_index_cell_bounds;
          Alcotest.test_case "remove" `Quick test_grid_index_remove;
          QCheck_alcotest.to_alcotest prop_grid_index_matches_oracle ] );
      ( "projection",
        [ Alcotest.test_case "corners" `Quick test_projection_corners;
          Alcotest.test_case "roundtrip" `Quick test_projection_roundtrip;
          Alcotest.test_case "invalid" `Quick test_projection_invalid ] );
      ("properties", qcheck_tests);
    ]
