type instance = { letter : char; city : string; pos : Geo.Coord.t }

let target_instances = 1076

(* Root-letter deployment sizes shaped on the 2021 root-servers.org
   directory, rescaled to sum to 1076. *)
let letter_counts =
  [ ('A', 16); ('B', 6); ('C', 10); ('D', 150); ('E', 230); ('F', 240);
    ('G', 6); ('H', 8); ('I', 64); ('J', 118); ('K', 75); ('L', 143); ('M', 10) ]

let () = assert (List.fold_left (fun a (_, n) -> a + n) 0 letter_counts = target_instances)

(* Anycast sites favour well-connected metros but are deliberately
   worldwide; weight population with a mild infrastructure factor. *)
let continent_weight =
  let open Geo.Region in
  function
  | Europe -> 2.6
  | North_america -> 1.7
  | Asia -> 1.0
  | Oceania -> 1.4
  | South_america -> 1.1
  | Africa -> 0.75
  | Antarctica -> 0.0

let build ?(seed = 42) () =
  let rng = Rng.create seed in
  let pick_city =
    Rng.weighted_sampler
      (Array.map
         (fun c ->
           (c, Float.max 0.05 (sqrt c.Cities.population_m) *. continent_weight c.Cities.continent))
         Cities.all)
  in
  let instances = ref [] in
  List.iter
    (fun (letter, count) ->
      for _ = 1 to count do
        let c = pick_city rng in
        instances := { letter; city = c.Cities.name; pos = c.Cities.pos } :: !instances
      done)
    letter_counts;
  Array.of_list (List.rev !instances)

let latitudes instances =
  Array.to_list (Array.map (fun i -> (Geo.Coord.lat i.pos, 1.0)) instances)

let per_continent instances =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun i ->
      let k = Geo.Region.continent_of_nearest i.pos in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    instances;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
