type node = { id : int; name : string; country : string; pos : Geo.Coord.t }

type t = { name : string; nodes : node array; cables : Cable.t array }

let create ~name ~nodes ~cables =
  let nodes = Array.of_list nodes in
  let cables = Array.of_list cables in
  Array.iteri
    (fun i n ->
      if n.id <> i then invalid_arg "Network.create: node ids must be 0..n-1 in order")
    nodes;
  Array.iteri
    (fun i (c : Cable.t) ->
      if c.Cable.id <> i then
        invalid_arg "Network.create: cable ids must be 0..m-1 in order";
      List.iter
        (fun l ->
          if l < 0 || l >= Array.length nodes then
            invalid_arg
              (Printf.sprintf "Network.create: cable %d lands at unknown node %d" i l))
        c.Cable.landings)
    cables;
  { name; nodes; cables }

let node t i = t.nodes.(i)
let cable t i = t.cables.(i)
let nb_nodes t = Array.length t.nodes
let nb_cables t = Array.length t.cables

let node_coord t i = t.nodes.(i).pos

let cables_at t n =
  Array.fold_right
    (fun (c : Cable.t) acc -> if List.mem n c.Cable.landings then c :: acc else acc)
    t.cables []

(* Edge ids: sequential as we expand cables; a side table maps them back. *)
let expand_edges t ~keep =
  let edge_cable = ref [] in
  let next_edge = ref 0 in
  let g = ref Netgraph.Graph.empty in
  Array.iteri (fun i n -> if n.id = i then g := Netgraph.Graph.add_node !g i) t.nodes;
  Array.iter
    (fun (c : Cable.t) ->
      if keep c then
        let rec hops = function
          | a :: (b :: _ as rest) ->
              g := Netgraph.Graph.add_edge !g ~id:!next_edge a b;
              edge_cable := (!next_edge, c.Cable.id) :: !edge_cable;
              incr next_edge;
              hops rest
          | [ _ ] | [] -> ()
        in
        hops c.Cable.landings)
    t.cables;
  let tbl = Hashtbl.create 256 in
  List.iter (fun (e, cid) -> Hashtbl.replace tbl e cid) !edge_cable;
  (!g, tbl)

let to_graph t =
  let g, tbl = expand_edges t ~keep:(fun _ -> true) in
  (g, fun e -> match Hashtbl.find_opt tbl e with Some c -> c | None -> -1)

let graph_without_cables t ~dead =
  if Array.length dead <> Array.length t.cables then
    invalid_arg "Network.graph_without_cables: dead array size mismatch";
  let g, _ = expand_edges t ~keep:(fun c -> not dead.(c.Cable.id)) in
  g

let graph_surviving t ~dead =
  let g, _ = expand_edges t ~keep:(fun c -> not (dead c.Cable.id)) in
  g

let cable_lengths t =
  Array.to_list (Array.map (fun (c : Cable.t) -> c.Cable.length_km) t.cables)

let longest_cable t =
  if Array.length t.cables = 0 then invalid_arg "Network.longest_cable: no cables";
  Array.fold_left
    (fun (best : Cable.t) (c : Cable.t) ->
      if c.Cable.length_km > best.Cable.length_km then c else best)
    t.cables.(0) t.cables

let endpoint_latitudes t =
  let has_cable = Array.make (Array.length t.nodes) false in
  Array.iter
    (fun (c : Cable.t) -> List.iter (fun l -> has_cable.(l) <- true) c.Cable.landings)
    t.cables;
  Array.to_list t.nodes
  |> List.filter_map (fun n ->
         if has_cable.(n.id) then Some (Geo.Coord.lat n.pos, 1.0) else None)

let one_hop_endpoints t ~threshold =
  let above n = Geo.Coord.abs_lat t.nodes.(n).pos > threshold in
  let flagged = Hashtbl.create 64 in
  Array.iter
    (fun (c : Cable.t) ->
      let landings = c.Cable.landings in
      if List.exists above landings then
        List.iter (fun n -> if not (above n) then Hashtbl.replace flagged n ()) landings)
    t.cables;
  Hashtbl.fold (fun n () acc -> n :: acc) flagged [] |> List.sort Int.compare

let mean_repeaters_per_cable t ~spacing_km =
  let m = Array.length t.cables in
  if m = 0 then 0.0
  else
    let total =
      Array.fold_left
        (fun acc c -> acc + Cable.repeater_count c ~spacing_km)
        0 t.cables
    in
    float_of_int total /. float_of_int m

let cables_without_repeaters t ~spacing_km =
  Array.fold_left
    (fun acc c -> if Cable.repeater_count c ~spacing_km > 0 then acc else acc + 1)
    0 t.cables

let pp_summary ppf t =
  let lengths = cable_lengths t in
  let total_len = List.fold_left ( +. ) 0.0 lengths in
  Format.fprintf ppf "%s: %d nodes, %d cables, %.0f km total"
    t.name (nb_nodes t) (nb_cables t) total_len
