let run_cables ~trials ~network ~model =
  (Montecarlo.run ~trials ~seed:61 ~network ~spacing_km:150.0 ~model ())
    .Montecarlo.cables_mean

let threshold_sweep ?(trials = 10) ~network () =
  List.map
    (fun mid ->
      let model =
        Failure_model.Latitude_tiered
          { high = 1.0; mid = 0.1; low = 0.01; mid_threshold = mid;
            high_threshold = mid +. 20.0 }
      in
      (mid, run_cables ~trials ~network ~model))
    [ 30.0; 35.0; 40.0; 45.0; 50.0 ]

let geographic_vs_geomagnetic ?(trials = 10) ~network () =
  [
    ( "S1",
      run_cables ~trials ~network ~model:Failure_model.s1,
      run_cables ~trials ~network ~model:Failure_model.s1_geomag );
    ( "S2",
      run_cables ~trials ~network ~model:Failure_model.s2,
      run_cables ~trials ~network ~model:Failure_model.s2_geomag );
  ]

let spacing_sweep ?(trials = 10) ~network ~model () =
  List.map
    (fun spacing_km ->
      let s = Montecarlo.run ~trials ~seed:67 ~network ~spacing_km ~model () in
      (spacing_km, s.Montecarlo.cables_mean))
    [ 50.0; 75.0; 100.0; 125.0; 150.0; 175.0; 200.0 ]

let seed_sensitivity ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(trials = 10) ~probability () =
  let values =
    List.map
      (fun seed ->
        let network = Datasets.Submarine.build ~seed () in
        run_cables ~trials ~network ~model:(Failure_model.uniform probability))
      seeds
  in
  Stats.mean_stddev values

let scale_a_sweep ~network ~dst_nt () =
  List.map
    (fun scale_a ->
      let model = Failure_model.Gic_physical { dst_nt; scale_a } in
      ( scale_a,
        Montecarlo.expected_cables_failed_pct ~network ~spacing_km:150.0 ~model ))
    [ 5.0; 10.0; 20.0; 30.0; 60.0; 120.0 ]
