let target_nodes = 11314
let target_links = 11737

(* Land-fiber nodes cluster around metros: each gazetteer city seeds a
   cloud of towns whose radius grows with metro population.  Links form a
   near-neighbour mesh, giving the short-haul-dominated length profile of
   the ITU map. *)

let build ?(seed = 42) ?(scale = 1.0) () =
  if scale <= 0.0 || scale > 1.0 then invalid_arg "Itu.build: scale outside (0, 1]";
  let n_target = Int.max 50 (int_of_float (float_of_int target_nodes *. scale)) in
  let l_target = Int.max 50 (int_of_float (float_of_int target_links *. scale)) in
  let rng = Rng.create seed in
  (* Scaled-down networks seed from the biggest metros only, so the
     town-cloud density per metro (and with it the short-link profile)
     stays comparable to the full-scale map. *)
  let cities =
    let by_pop = Cities.by_population () in
    Array.sub by_pop 0 (Int.min (Array.length by_pop) (Int.max 30 (n_target / 2)))
  in
  let pick_city =
    Rng.weighted_sampler (Array.map (fun c -> (c, Float.max 0.05 c.Cities.population_m)) cities)
  in
  let nodes = ref [] in
  let n_nodes = ref 0 in
  let add_node ~name ~country pos =
    let id = !n_nodes in
    nodes := { Infra.Network.id; name; country; pos } :: !nodes;
    incr n_nodes;
    id
  in
  (* Every gazetteer city gets a node; the rest of the budget goes to
     satellite towns. *)
  Array.iter
    (fun c -> ignore (add_node ~name:c.Cities.name ~country:c.Cities.country c.Cities.pos))
    cities;
  while !n_nodes < n_target do
    let c = pick_city rng in
    let spread = 0.30 +. (0.13 *. sqrt c.Cities.population_m) in
    let dlat = Rng.normal rng ~mu:0.0 ~sigma:spread in
    let dlon = Rng.normal rng ~mu:0.0 ~sigma:spread in
    let lat = Float.max (-65.0) (Float.min 72.0 (Geo.Coord.lat c.Cities.pos +. dlat)) in
    let lon = Geo.Coord.lon c.Cities.pos +. dlon in
    ignore
      (add_node
         ~name:(Printf.sprintf "%s town-%d" c.Cities.name !n_nodes)
         ~country:c.Cities.country
         (Geo.Coord.make ~lat ~lon))
  done;
  let node_arr = Array.of_list (List.rev !nodes) in
  let pos_of i = node_arr.(i).Infra.Network.pos in
  let index =
    Geo.Grid_index.of_list
      ~cell_deg:2.0
      (Array.to_list (Array.mapi (fun i n -> (n.Infra.Network.pos, i)) node_arr))
  in
  let cables = ref [] in
  let n_cables = ref 0 in
  let seen_pairs = Hashtbl.create 4096 in
  let add_link a b =
    let key = (Int.min a b, Int.max a b) in
    if a <> b && not (Hashtbl.mem seen_pairs key) && !n_cables < l_target then begin
      Hashtbl.replace seen_pairs key ();
      let gc = Geo.Distance.haversine_km (pos_of a) (pos_of b) in
      cables :=
        Infra.Cable.make ~id:!n_cables
          ~name:(Printf.sprintf "itu-link-%d" !n_cables)
          ~kind:Infra.Cable.Land_fiber
          ~landings:[ (a, pos_of a); (b, pos_of b) ]
          ~length_km:(Float.max 5.0 (gc *. 1.3))
          ()
        :: !cables;
      incr n_cables
    end
  in
  (* The nearest other node, searched at radii of 120 km, then 1.9 times
     the last, until one holds another node or reaches 4,000 km. *)
  let nearest_other i =
    let rec gather radius =
      match
        Geo.Grid_index.nearest_within index (pos_of i) ~radius_km:radius ~skip:(fun j -> j = i)
      with
      | None when radius < 4000.0 -> gather (radius *. 1.9)
      | found -> Option.map (fun (_, j, _) -> j) found
    in
    gather 120.0
  in
  (* Local mesh: each node joins its nearest neighbour (mostly sub-150 km
     links).  The budget remainder becomes inter-city trunks. *)
  Array.iteri
    (fun i _ -> if !n_cables < l_target then Option.iter (add_link i) (nearest_other i))
    node_arr;
  let guard = ref 0 in
  let n_all = Array.length node_arr in
  while !n_cables < l_target && !guard < 400000 do
    incr guard;
    let a = Rng.int rng n_all in
    let candidates =
      Geo.Grid_index.within_km index (pos_of a) ~radius_km:250.0
      |> List.filter (fun (_, j, d) -> j <> a && d > 40.0)
    in
    match candidates with
    | [] -> ()
    | hits ->
        let _, b, _ = Rng.choice rng (Array.of_list hits) in
        add_link a b
  done;
  Infra.Network.create ~name:"itu" ~nodes:(List.rev !nodes) ~cables:(List.rev !cables)
