let cable_capacity_tbps (c : Infra.Cable.t) =
  let pairs =
    if c.Infra.Cable.length_km < 2000.0 then 8.0
    else if c.Infra.Cable.length_km < 8000.0 then 6.0
    else 4.0
  in
  pairs *. 15.0

let network_capacity_tbps net =
  let total = ref 0.0 in
  for i = 0 to Infra.Network.nb_cables net - 1 do
    total := !total +. cable_capacity_tbps (Infra.Network.cable net i)
  done;
  !total

type corridor = {
  name : string;
  from_countries : string list;
  to_countries : string list;
}

let atlantic =
  {
    name = "US/Canada - Europe";
    from_countries = [ "United States"; "Canada" ];
    to_countries =
      [ "United Kingdom"; "Ireland"; "France"; "Spain"; "Portugal"; "Germany";
        "Netherlands"; "Belgium"; "Denmark"; "Norway"; "Iceland" ];
  }

let brazil_europe =
  { name = "Brazil - Europe"; from_countries = [ "Brazil" ];
    to_countries = [ "Portugal"; "Spain"; "France" ] }

let pacific =
  { name = "US - East Asia"; from_countries = [ "United States" ];
    to_countries = [ "Japan"; "China"; "Taiwan"; "South Korea"; "Philippines" ] }

let asia_europe =
  { name = "Asia - Europe"; from_countries = [ "India"; "Singapore"; "China"; "Japan" ];
    to_countries = [ "France"; "Italy"; "United Kingdom"; "Germany"; "Greece" ] }

type corridor_report = {
  corridor : corridor;
  healthy_tbps : float;
  expected_tbps : float;
  surviving_pct : float;
  min_cut_cables : string list;
}

let group_nodes net countries =
  List.concat_map (Datasets.Submarine.nodes_in_country net) countries

let terminals ~network corridor =
  let sources = group_nodes network corridor.from_countries in
  (* A node can belong to both shores only through data errors; drop
     overlaps from the sink side. *)
  let sinks =
    List.filter (fun n -> not (List.mem n sources)) (group_nodes network corridor.to_countries)
  in
  (sources, sinks)

let total_hops net =
  let n = ref 0 in
  for c = 0 to Infra.Network.nb_cables net - 1 do
    n := !n + Infra.Cable.hop_count (Infra.Network.cable net c)
  done;
  !n

(* [dead] is a predicate on cable ids so the trial driver can pass its
   bitvector dead-set without materializing a bool array per trial.  The
   arcs come straight from the cable list, in the order
   [Network.graph_surviving] numbers its edges (live cables by id, hops
   in landing order), over node ids that are already dense. *)
let flow_between net ~dead ~sources ~sinks =
  let edges add =
    let next = ref 0 in
    for c = 0 to Infra.Network.nb_cables net - 1 do
      if not (dead c) then begin
        let cable = Infra.Network.cable net c in
        let cap = cable_capacity_tbps cable in
        let rec hops = function
          | a :: (b :: _ as rest) ->
              add a b cap !next;
              incr next;
              hops rest
          | [ _ ] | [] -> ()
        in
        hops cable.Infra.Cable.landings
      end
    done
  in
  Netgraph.Flow.max_flow_multi_edges ~nodes:(Infra.Network.nb_nodes net)
    ~max_edges:(total_hops net) ~edges ~sources ~sinks

let analyze_corridor ?(trials = 10) ?(seed = 71) ?(spacing_km = 150.0) ?jobs ~network
    ~model corridor =
  let sources, sinks = terminals ~network corridor in
  if sources = [] || sinks = [] then
    { corridor; healthy_tbps = 0.0; expected_tbps = 0.0; surviving_pct = 0.0;
      min_cut_cables = [] }
  else begin
    let healthy = flow_between network ~dead:(fun _ -> false) ~sources ~sinks in
    let p = Plan.compile ~spacing_km ~network ~model () in
    let acc =
      Plan.run_trials_par ?jobs p ~trials ~seed ~init:0.0
        ~map:(fun ~rng:_ ~dead -> flow_between network ~dead:(Deadset.get dead) ~sources ~sinks)
        ~merge:( +. )
    in
    let expected = acc /. float_of_int trials in
    (* Min-cut cables of the healthy corridor: multi-terminal minimum cut
       between the two shores. *)
    let min_cut_cables =
      let g, edge_cable = Infra.Network.to_graph network in
      let capacity e =
        let c = edge_cable e in
        if c >= 0 then cable_capacity_tbps (Infra.Network.cable network c) else 0.0
      in
      Netgraph.Flow.min_cut_edges_multi g ~capacity ~sources ~sinks
      |> List.map (fun e -> (Infra.Network.cable network (edge_cable e)).Infra.Cable.name)
      |> List.sort_uniq String.compare
    in
    {
      corridor;
      healthy_tbps = healthy;
      expected_tbps = expected;
      surviving_pct = (if healthy <= 0.0 then 0.0 else 100.0 *. expected /. healthy);
      min_cut_cables;
    }
  end

let standard_report ?trials ?jobs ~network ~model () =
  List.map
    (analyze_corridor ?trials ?jobs ~network ~model)
    [ atlantic; brazil_europe; pacific; asia_europe ]
