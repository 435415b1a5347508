type t = { name : string; city : string; pos : Geo.Coord.t }

let target_count = 1026

let continent_weight =
  let open Geo.Region in
  function
  | Europe -> 4.2
  | North_america -> 2.6
  | Asia -> 0.9
  | Oceania -> 1.8
  | South_america -> 1.3
  | Africa -> 0.6
  | Antarctica -> 0.0

let build ?(seed = 42) () =
  let rng = Rng.create seed in
  let pick_city =
    Rng.weighted_sampler
      (Array.map
         (fun c ->
           (c, Float.max 0.05 c.Cities.population_m *. continent_weight c.Cities.continent))
         Cities.all)
  in
  Array.init target_count (fun i ->
      let c = pick_city rng in
      { name = Printf.sprintf "IX-%s-%d" c.Cities.name i; city = c.Cities.name; pos = c.Cities.pos })

let latitudes ixps = Array.to_list (Array.map (fun i -> (Geo.Coord.lat i.pos, 1.0)) ixps)
