type section = { gic_a : float }

type result = { sections : section list; peak_gic_a : float }

let ground_resistance_ohm = 2.0

let section_emf ~storm ~path ~start_km ~end_km =
  (* Integrate |E| * projection over [start, end] in 100 km steps using
     mid-point field amplitudes. *)
  let sample_km = 100.0 in
  let rec go acc d =
    if d >= end_km then acc
    else
      let d' = Float.min end_km (d +. sample_km) in
      let mid = Geo.Geodesic.point_at_km path ((d +. d') /. 2.0) in
      let e = Efield.amplitude_v_per_km storm mid in
      go (acc +. (e *. (d' -. d) *. Efield.projection_factor_mean)) d'
  in
  go 0.0 start_km

let line_resistance_ohm_km = 0.8

let compute ~storm ~path ~ground_chainages_km () =
  if path = [] then invalid_arg "Induced.compute: empty path";
  let total = Geo.Distance.path_length_km path in
  let grounds =
    List.sort_uniq Float.compare
      (0.0 :: total
      :: List.filter (fun d -> d > 0.0 && d < total) ground_chainages_km)
  in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  let sections =
    List.filter_map
      (fun (a, b) ->
        let len = b -. a in
        if len <= 1e-6 then None
        else
          let emf = section_emf ~storm ~path ~start_km:a ~end_km:b in
          let r = (line_resistance_ohm_km *. len) +. (2.0 *. ground_resistance_ohm) in
          Some { gic_a = emf /. r })
      (pairs grounds)
  in
  let peak = List.fold_left (fun m s -> Float.max m (Float.abs s.gic_a)) 0.0 sections in
  { sections; peak_gic_a = peak }
