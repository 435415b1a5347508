type sweep_point = {
  probability : float;
  spacing_km : float;
  network : string;
  series : Montecarlo.series;
}

let paper_probabilities = [ 0.001; 0.003; 0.01; 0.03; 0.1; 0.3; 1.0 ]

let fig6_7 ?(trials = 10) ~networks () =
  List.concat_map
    (fun spacing_km ->
      List.concat_map
        (fun (name, net) ->
          List.map
            (fun p ->
              let model = Failure_model.uniform p in
              let series =
                Montecarlo.run ~trials
                  ~seed:(7 + int_of_float (spacing_km *. 1000.0) + Hashtbl.hash (name, p))
                  ~network:net ~spacing_km ~model ()
              in
              { probability = p; spacing_km; network = name; series })
            paper_probabilities)
        networks)
    Infra.Repeater.paper_spacings_km

type tiered_point = {
  state : string;
  spacing_km : float;
  network : string;
  series : Montecarlo.series;
}

let fig8 ?(trials = 10) ~networks () =
  let states = [ ("S1", Failure_model.s1); ("S2", Failure_model.s2) ] in
  List.concat_map
    (fun (state, model) ->
      List.concat_map
        (fun spacing_km ->
          List.map
            (fun (name, net) ->
              let series =
                Montecarlo.run ~trials
                  ~seed:(11 + int_of_float spacing_km + Hashtbl.hash (name, state))
                  ~network:net ~spacing_km ~model ()
              in
              { state; spacing_km; network = name; series })
            networks)
        Infra.Repeater.paper_spacings_km)
    states

let feq a b = Float.abs (a -. b) < 1e-9

let find_sweep points ~network ~spacing_km ~probability =
  List.find_opt
    (fun (p : sweep_point) ->
      p.network = network && feq p.spacing_km spacing_km && feq p.probability probability)
    points

let find_tiered points ~network ~spacing_km ~state =
  List.find_opt
    (fun (p : tiered_point) ->
      p.network = network && feq p.spacing_km spacing_km && p.state = state)
    points
