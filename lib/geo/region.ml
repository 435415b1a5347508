type continent =
  | Africa
  | Asia
  | Europe
  | North_america
  | South_america
  | Oceania
  | Antarctica

let all_continents =
  [ Europe; Asia; Africa; North_america; South_america; Oceania; Antarctica ]

let continent_to_string = function
  | Africa -> "Africa"
  | Asia -> "Asia"
  | Europe -> "Europe"
  | North_america -> "North America"
  | South_america -> "South America"
  | Oceania -> "Oceania"
  | Antarctica -> "Antarctica"

let equal_continent a b = a = b

type polygon = { vertices : (float * float) array (* (lat, lon) *) }

let polygon vertices =
  if List.length vertices < 3 then invalid_arg "Region.polygon: fewer than 3 vertices";
  { vertices = Array.of_list vertices }

(* Standard ray casting on the (lon, lat) plane.  The polygons used here
   never cross the antimeridian, so no wrap handling is needed beyond
   normalizing input longitudes. *)
let contains poly c =
  let px = Coord.lon c and py = Coord.lat c in
  let n = Array.length poly.vertices in
  let inside = ref false in
  for i = 0 to n - 1 do
    let y1, x1 = poly.vertices.(i) in
    let y2, x2 = poly.vertices.((i + 1) mod n) in
    if y1 > py <> (y2 > py) then begin
      let x_cross = x1 +. ((py -. y1) /. (y2 -. y1) *. (x2 -. x1)) in
      if px < x_cross then inside := not !inside
    end
  done;
  !inside

(* Coarse continent outlines, (lat, lon) vertices.  Drawn by hand around
   the land masses; island nations near a continent are inside its hull. *)

let europe =
  polygon
    [ (71.5, 26.0); (71.0, 40.0); (66.0, 60.0); (55.0, 62.0); (50.0, 60.0);
      (45.0, 48.0); (41.0, 46.0); (36.0, 36.0); (34.5, 26.0); (36.0, 10.0);
      (35.5, -6.0); (36.5, -10.0); (43.0, -10.5); (48.5, -6.0); (51.0, -11.5);
      (55.5, -11.0); (58.5, -8.0); (62.0, -8.0); (66.0, -25.0); (67.5, -25.0);
      (71.0, -8.0) ]

let asia =
  polygon
    [ (77.0, 60.0); (77.0, 105.0); (72.0, 180.0); (64.0, 180.0); (60.0, 165.0);
      (50.0, 158.0); (45.0, 152.0); (30.0, 145.0); (20.0, 125.0); (0.0, 132.0);
      (-11.0, 125.0); (-9.0, 105.0); (0.0, 95.0); (5.0, 78.0); (7.0, 77.0);
      (8.0, 73.0); (20.0, 60.0); (12.0, 55.0); (12.0, 43.5); (27.0, 33.0);
      (31.0, 32.0); (36.0, 36.0); (41.0, 46.0); (45.0, 48.0); (50.0, 60.0);
      (55.0, 62.0); (66.0, 60.0) ]

let africa =
  polygon
    [ (37.5, 10.0); (33.0, 32.0); (27.0, 34.5); (12.0, 43.5); (10.5, 51.5);
      (-1.0, 42.0); (-16.0, 41.0); (-26.0, 33.5); (-35.5, 20.5); (-34.5, 17.5);
      (-17.0, 11.0); (-5.0, 8.5); (4.0, 6.0); (4.5, -8.0); (14.0, -18.0);
      (21.0, -18.0); (28.0, -13.5); (35.5, -6.5); (37.0, -3.0) ]

let north_america =
  polygon
    [ (83.5, -70.0); (82.0, -45.0); (76.0, -18.0); (70.0, -22.0); (60.0, -43.0);
      (52.0, -55.0); (46.0, -52.0); (43.0, -65.0); (35.0, -75.0); (25.0, -79.5);
      (17.5, -76.0); (16.0, -61.0); (10.0, -61.5); (7.5, -78.5); (8.5, -83.0);
      (15.0, -97.0); (18.0, -104.0); (23.0, -110.5); (32.0, -118.0); (40.0, -125.0);
      (48.5, -126.0); (55.0, -134.0); (58.0, -152.0); (54.0, -168.0); (65.0, -169.0);
      (71.5, -157.0); (70.0, -128.0); (73.5, -85.0) ]

let south_america =
  polygon
    [ (12.5, -72.0); (10.5, -62.0); (5.0, -52.0); (0.0, -50.0); (-5.0, -35.0);
      (-13.0, -38.0); (-23.0, -41.0); (-35.0, -53.0); (-39.0, -57.5); (-47.0, -65.5);
      (-55.5, -66.5); (-55.5, -71.0); (-46.0, -76.0); (-37.0, -74.0); (-18.0, -71.5);
      (-6.0, -81.5); (-1.0, -81.0); (7.0, -78.5); (9.0, -76.0) ]

let oceania =
  polygon
    [ (-10.0, 142.0); (-11.0, 136.0); (-12.0, 130.5); (-14.0, 126.5); (-18.0, 122.0);
      (-22.0, 113.5); (-26.0, 112.5); (-35.0, 115.0); (-35.5, 118.0); (-32.0, 134.0);
      (-38.0, 140.5); (-39.0, 146.5); (-43.5, 147.0); (-37.5, 150.0); (-33.0, 152.0);
      (-28.0, 153.5); (-25.0, 153.0); (-17.0, 146.0); (-11.0, 143.0) ]

let new_zealand =
  polygon
    [ (-34.0, 172.5); (-37.5, 178.5); (-41.5, 176.5); (-42.5, 174.0); (-46.5, 170.5);
      (-47.0, 167.0); (-44.0, 167.5); (-40.5, 172.0); (-36.0, 173.0) ]

let antarctica = polygon [ (-60.0, -180.0); (-60.0, 180.0); (-90.0, 180.0); (-90.0, -180.0) ]

let regions =
  [ (Europe, [ europe ]);
    (Asia, [ asia ]);
    (Africa, [ africa ]);
    (North_america, [ north_america ]);
    (South_america, [ south_america ]);
    (Oceania, [ oceania; new_zealand ]);
    (Antarctica, [ antarctica ]) ]

let continent_of c =
  let rec find = function
    | [] -> None
    | (name, polys) :: rest ->
        if List.exists (fun p -> contains p c) polys then Some name else find rest
  in
  find regions

(* Anchor points used to classify offshore coordinates. *)
let anchors =
  [ (Europe, Coord.make ~lat:50.0 ~lon:10.0);
    (Asia, Coord.make ~lat:35.0 ~lon:100.0);
    (Africa, Coord.make ~lat:5.0 ~lon:20.0);
    (North_america, Coord.make ~lat:45.0 ~lon:(-100.0));
    (South_america, Coord.make ~lat:(-15.0) ~lon:(-60.0));
    (Oceania, Coord.make ~lat:(-25.0) ~lon:140.0);
    (Antarctica, Coord.make ~lat:(-80.0) ~lon:0.0) ]

let continent_of_nearest c =
  match continent_of c with
  | Some k -> k
  | None ->
      let _, best =
        List.fold_left
          (fun (dmin, kmin) (k, anchor) ->
            let d = Distance.haversine_km c anchor in
            if d < dmin then (d, k) else (dmin, kmin))
          (Float.infinity, Europe) anchors
      in
      best

let on_land c = continent_of c <> None
