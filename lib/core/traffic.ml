type demand = {
  from_continent : Geo.Region.continent;
  to_continent : Geo.Region.continent;
  volume : float;
}

(* Rough continent shares of Internet demand (population-weighted with a
   development factor). *)
let continent_weight =
  let open Geo.Region in
  [ (Asia, 45.0); (Europe, 15.0); (Africa, 11.0); (North_america, 8.0);
    (South_america, 6.0); (Oceania, 1.0) ]

let gravity_demands () =
  let pairs =
    let rec go = function
      | [] -> []
      | (a, wa) :: rest ->
          List.map (fun (b, wb) -> (a, b, wa *. wb)) rest @ go rest
    in
    go continent_weight
  in
  let total = List.fold_left (fun acc (_, _, v) -> acc +. v) 0.0 pairs in
  List.map
    (fun (a, b, v) ->
      { from_continent = a; to_continent = b; volume = 100.0 *. v /. total })
    pairs

type routing = { delivered_pct : float; max_cable_load : float }

(* Gateway: the surviving landing station of a continent with the most
   live cables. *)
let gateways network ~alive_graph =
  let best = Hashtbl.create 8 in
  for i = 0 to Infra.Network.nb_nodes network - 1 do
    let node = Infra.Network.node network i in
    let k = Geo.Region.continent_of_nearest node.Infra.Network.pos in
    let deg = Netgraph.Graph.degree alive_graph i in
    if deg > 0 then
      match Hashtbl.find_opt best k with
      | Some (_, d) when d >= deg -> ()
      | _ -> Hashtbl.replace best k (i, deg)
  done;
  best

(* [dead] is a predicate on cable ids: [route] passes none dead, and
   [storm_shift]'s trials pass their bitvector directly. *)
let route_internal ~dead ~network ~demands () =
  let g = Infra.Network.graph_surviving network ~dead in
  (* Number the live hops as [graph_surviving] numbers its edges (live
     cables by id, hops in landing order), so that an edge id finds its
     cable and its share of the cable's length as a weight. *)
  let gw = gateways network ~alive_graph:g in
  (* Edge weight: spread the cable's length over its hops. *)
  let edge_weights = Hashtbl.create 1024 in
  let edge_cable_tbl = Hashtbl.create 1024 in
  let next_edge = ref 0 in
  for c = 0 to Infra.Network.nb_cables network - 1 do
    let cable = Infra.Network.cable network c in
    if not (dead c) then begin
      let hops = Infra.Cable.hop_count cable in
      let rec walk = function
        | _ :: (_ :: _ as rest) ->
            Hashtbl.replace edge_weights !next_edge
              (cable.Infra.Cable.length_km /. float_of_int (Int.max 1 hops));
            Hashtbl.replace edge_cable_tbl !next_edge c;
            incr next_edge;
            walk rest
        | [ _ ] | [] -> ()
      in
      walk cable.Infra.Cable.landings
    end
  done;
  let weight e = Option.value ~default:1.0 (Hashtbl.find_opt edge_weights e) in
  let cable_load = Array.make (Infra.Network.nb_cables network) 0.0 in
  let delivered = ref 0.0 and total = ref 0.0 in
  List.iter
    (fun d ->
      total := !total +. d.volume;
      match (Hashtbl.find_opt gw d.from_continent, Hashtbl.find_opt gw d.to_continent) with
      | Some (a, _), Some (b, _) -> (
          match Netgraph.Paths.shortest_path g ~weight a b with
          | Some (_, path) ->
              delivered := !delivered +. d.volume;
              (* Charge the load to each cable along the path: recover the
                 edge between consecutive path nodes. *)
              let rec charge = function
                | x :: (y :: _ as rest) ->
                    (* Cheapest live edge between x and y. *)
                    let best = ref None in
                    List.iter
                      (fun (m, eid) ->
                        if m = y then
                          match !best with
                          | Some (_, w) when w <= weight eid -> ()
                          | _ -> best := Some (eid, weight eid))
                      (Netgraph.Graph.neighbors g x);
                    (match !best with
                    | Some (eid, _) -> (
                        match Hashtbl.find_opt edge_cable_tbl eid with
                        | Some c -> cable_load.(c) <- cable_load.(c) +. d.volume
                        | None -> ())
                    | None -> ());
                    charge rest
                | [ _ ] | [] -> ()
              in
              charge path
          | None -> ())
      | _ -> ())
    demands;
  {
    delivered_pct = (if !total <= 0.0 then 0.0 else 100.0 *. !delivered /. !total);
    max_cable_load = Array.fold_left Float.max 0.0 cable_load;
  }

let routes = Obs.Metrics.counter "traffic.routes"

let route ~network ~demands () =
  Obs.Metrics.incr routes;
  Obs.Span.with_ ~name:"traffic.route" @@ fun () ->
  route_internal ~dead:(fun _ -> false) ~network ~demands ()

let storm_shift ?(trials = 10) ~network ~model () =
  let demands = gravity_demands () in
  let baseline = route ~network ~demands () in
  let p = Plan.compile ~spacing_km:150.0 ~network ~model () in
  let acc =
    Plan.run_trials_par p ~trials ~seed:47 ~init:[]
      ~map:(fun ~rng:_ ~dead -> route_internal ~dead:(Deadset.get dead) ~network ~demands ())
      ~merge:(fun acc r -> r :: acc)
  in
  let avg f = Stats.mean (List.map f acc) in
  ( baseline,
    {
      delivered_pct = avg (fun r -> r.delivered_pct);
      max_cable_load = avg (fun r -> r.max_cable_load);
    } )
