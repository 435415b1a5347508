type operator = Google | Facebook

type site = { operator : operator; name : string; country : string; pos : Geo.Coord.t }

let site operator name country lat lon =
  { operator; name; country; pos = Geo.Coord.make ~lat ~lon }

(* Google data centers, public list (2021). *)
let google =
  [
    site Google "Berkeley County SC" "United States" 33.19 (-80.01);
    site Google "Douglas County GA" "United States" 33.75 (-84.58);
    site Google "Jackson County AL" "United States" 34.77 (-85.97);
    site Google "Lenoir NC" "United States" 35.91 (-81.54);
    site Google "Loudoun County VA" "United States" 39.09 (-77.64);
    site Google "Montgomery County TN" "United States" 36.57 (-87.35);
    site Google "Mayes County OK" "United States" 36.30 (-95.32);
    site Google "Council Bluffs IA" "United States" 41.26 (-95.86);
    site Google "Papillion NE" "United States" 41.15 (-96.04);
    site Google "The Dalles OR" "United States" 45.59 (-121.18);
    site Google "Henderson NV" "United States" 36.04 (-115.00);
    site Google "Midlothian TX" "United States" 32.48 (-96.99);
    site Google "New Albany OH" "United States" 40.08 (-82.81);
    site Google "Quilicura" "Chile" (-33.36) (-70.73);
    site Google "Montreal" "Canada" 45.50 (-73.57);
    site Google "Sao Paulo (Osasco)" "Brazil" (-23.53) (-46.79);
    site Google "St. Ghislain" "Belgium" 50.47 3.87;
    site Google "Hamina" "Finland" 60.57 27.20;
    site Google "Dublin" "Ireland" 53.32 (-6.34);
    site Google "Eemshaven" "Netherlands" 53.43 6.86;
    site Google "Middenmeer" "Netherlands" 52.81 5.00;
    site Google "Fredericia" "Denmark" 55.56 9.65;
    site Google "Frankfurt" "Germany" 50.11 8.68;
    site Google "Zurich" "Switzerland" 47.37 8.54;
    site Google "Warsaw" "Poland" 52.23 21.01;
    site Google "London" "United Kingdom" 51.51 (-0.13);
    site Google "Changhua County" "Taiwan" 24.08 120.43;
    site Google "Singapore" "Singapore" 1.35 103.82;
    site Google "Jurong West" "Singapore" 1.34 103.71;
    site Google "Tokyo" "Japan" 35.68 139.69;
    site Google "Osaka" "Japan" 34.69 135.50;
    site Google "Mumbai" "India" 19.08 72.88;
    site Google "Delhi" "India" 28.70 77.10;
    site Google "Jakarta" "Indonesia" (-6.21) 106.85;
    site Google "Seoul" "South Korea" 37.57 126.98;
    site Google "Sydney" "Australia" (-33.87) 151.21;
    site Google "Melbourne" "Australia" (-37.81) 144.96;
    site Google "Tel Aviv" "Israel" 32.07 34.78;
  ]

(* Facebook/Meta data centers, public list (2021): US + Nordic/EU + one
   Asian site; nothing in Africa or South America. *)
let facebook =
  [
    site Facebook "Prineville OR" "United States" 44.30 (-120.84);
    site Facebook "Forest City NC" "United States" 35.33 (-81.87);
    site Facebook "Altoona IA" "United States" 41.65 (-93.47);
    site Facebook "Fort Worth TX" "United States" 32.75 (-97.33);
    site Facebook "Los Lunas NM" "United States" 34.81 (-106.73);
    site Facebook "Papillion NE" "United States" 41.15 (-96.04);
    site Facebook "New Albany OH" "United States" 40.08 (-82.81);
    site Facebook "Henrico VA" "United States" 37.54 (-77.44);
    site Facebook "Eagle Mountain UT" "United States" 40.31 (-112.01);
    site Facebook "Huntsville AL" "United States" 34.73 (-86.59);
    site Facebook "Newton County GA" "United States" 33.55 (-83.85);
    site Facebook "Gallatin TN" "United States" 36.39 (-86.45);
    site Facebook "DeKalb IL" "United States" 41.93 (-88.77);
    site Facebook "Lulea" "Sweden" 65.58 22.15;
    site Facebook "Odense" "Denmark" 55.40 10.40;
    site Facebook "Clonee" "Ireland" 53.41 (-6.44);
    site Facebook "Papenburg?Altona" "Germany" 53.55 9.99;
    site Facebook "Singapore" "Singapore" 1.35 103.82;
  ]

let operator_to_string = function Google -> "Google" | Facebook -> "Facebook"

let sites_of = function Google -> google | Facebook -> facebook

let latitudes op =
  List.map (fun s -> (Geo.Coord.lat s.pos, 1.0)) (sites_of op)

let continents_covered op =
  let present = Hashtbl.create 8 in
  List.iter
    (fun s -> Hashtbl.replace present (Geo.Region.continent_of_nearest s.pos) ())
    (sites_of op);
  List.filter (Hashtbl.mem present) Geo.Region.all_continents

let latitude_spread op =
  match sites_of op with
  | [] -> 0.0
  | first :: _ as sites ->
      let lats = List.map (fun s -> Geo.Coord.lat s.pos) sites in
      let lo = List.fold_left Float.min (Geo.Coord.lat first.pos) lats in
      let hi = List.fold_left Float.max (Geo.Coord.lat first.pos) lats in
      hi -. lo
