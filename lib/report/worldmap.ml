type layer =
  | Points of char * Geo.Coord.t list
  | Arcs of char * (Geo.Coord.t * Geo.Coord.t) list

let width = 110
let height = 34

let render layers =
  let proj = Geo.Projection.equirectangular ~width ~height in
  let grid = Array.make_matrix height width ' ' in
  (* Coastline background: sample each cell centre for land. *)
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      let c = Geo.Projection.of_xy proj x y in
      if Geo.Region.on_land c then grid.(y).(x) <- '.'
    done
  done;
  let put glyph coord =
    let x, y = Geo.Projection.to_xy proj coord in
    grid.(y).(x) <- glyph
  in
  let draw_arc glyph a b =
    let n = Int.max 2 (int_of_float (Geo.Distance.haversine_km a b /. 300.0)) in
    List.iter (put glyph) (Geo.Geodesic.waypoints a b ~n)
  in
  List.iter
    (function
      | Points (glyph, pts) -> List.iter (put glyph) pts
      | Arcs (glyph, arcs) -> List.iter (fun (a, b) -> draw_arc glyph a b) arcs)
    layers;
  let buf = Buffer.create (width * height) in
  Array.iter
    (fun line ->
      Buffer.add_string buf (String.init width (fun c -> line.(c)));
      Buffer.add_char buf '\n')
    grid;
  Buffer.contents buf

let network_layers ?(cable_glyph = '-') ?(node_glyph = 'O') net =
  let arcs = ref [] in
  for c = 0 to Infra.Network.nb_cables net - 1 do
    let cable = Infra.Network.cable net c in
    let rec hops = function
      | a :: (b :: _ as rest) ->
          arcs := (Infra.Network.node_coord net a, Infra.Network.node_coord net b) :: !arcs;
          hops rest
      | [ _ ] | [] -> ()
    in
    hops cable.Infra.Cable.landings
  done;
  let nodes =
    List.init (Infra.Network.nb_nodes net) (fun i -> Infra.Network.node_coord net i)
  in
  [ Arcs (cable_glyph, !arcs); Points (node_glyph, nodes) ]
