type params = {
  ships : int;
  base_repair_days : float;
  transit_days_per_1000km : float;
  faults_per_10_repeaters : float;
}

let default_params =
  { ships = 60; base_repair_days = 10.0; transit_days_per_1000km = 1.5;
    faults_per_10_repeaters = 1.0 }

type timeline = {
  days_to_50_pct : float;
  days_to_90_pct : float;
  days_to_full : float;
  series : (float * float) list;
  total_ship_days : float;
}

let job_duration params (cable : Infra.Cable.t) =
  let repeaters =
    float_of_int (Infra.Cable.repeater_count cable ~spacing_km:150.0)
  in
  let faults = Float.max 1.0 (repeaters /. 10.0 *. params.faults_per_10_repeaters) in
  let transit = cable.Infra.Cable.length_km /. 1000.0 *. params.transit_days_per_1000km in
  (faults *. params.base_repair_days) +. transit

let plan ?(params = default_params) ~network ~dead () =
  if Array.length dead <> Infra.Network.nb_cables network then
    invalid_arg "Recovery.plan: dead array size mismatch";
  if params.ships <= 0 then invalid_arg "Recovery.plan: non-positive fleet";
  let jobs = ref [] in
  Array.iteri
    (fun c is_dead ->
      if is_dead then jobs := job_duration params (Infra.Network.cable network c) :: !jobs)
    dead;
  (* Shortest job first: restores the most cables earliest. *)
  let jobs = List.sort Float.compare !jobs in
  let total_jobs = List.length jobs in
  if total_jobs = 0 then
    { days_to_50_pct = 0.0; days_to_90_pct = 0.0; days_to_full = 0.0;
      series = [ (0.0, 1.0) ]; total_ship_days = 0.0 }
  else begin
    (* Greedy multi-server schedule: assign each job to the ship that
       frees up first. *)
    let ships = Array.make params.ships 0.0 in
    let completions = ref [] in
    List.iter
      (fun d ->
        (* Ship with minimal busy-until. *)
        let best = ref 0 in
        Array.iteri (fun i t -> if t < ships.(!best) then best := i) ships;
        ships.(!best) <- ships.(!best) +. d;
        completions := ships.(!best) :: !completions)
      jobs;
    let completions = List.sort Float.compare !completions in
    let total_ship_days = List.fold_left ( +. ) 0.0 jobs in
    let at_fraction f =
      let k = Int.max 1 (int_of_float (Float.ceil (f *. float_of_int total_jobs))) in
      List.nth completions (k - 1)
    in
    let series =
      List.mapi
        (fun i day -> (day, float_of_int (i + 1) /. float_of_int total_jobs))
        completions
    in
    {
      days_to_50_pct = at_fraction 0.5;
      days_to_90_pct = at_fraction 0.9;
      days_to_full = at_fraction 1.0;
      series;
      total_ship_days;
    }
  end

let us_outage_cost_usd ~dark_fraction ~days = 7e9 *. dark_fraction *. days

(* The representative restoration curve: the trial whose days_to_90_pct
   is the (lower) median, ties broken by trial order.  Averaging the
   scalar fields while returning an arbitrary trial's curve — as an
   earlier version did with the last trial — made the curve disagree
   with the summary numbers printed next to it. *)
let median_series tls =
  let indexed = List.mapi (fun i t -> (t.days_to_90_pct, i, t)) tls in
  let sorted =
    List.sort
      (fun (a, i, _) (b, j, _) ->
        match Float.compare a b with 0 -> Int.compare i j | c -> c)
      indexed
  in
  match List.nth_opt sorted ((List.length sorted - 1) / 2) with
  | Some (_, _, t) -> t.series
  | None -> []

let storm_recovery ?(trials = 10) ~network ~model () =
  let p = Plan.compile ~spacing_km:150.0 ~network ~model () in
  let tls, deads =
    Plan.run_trials_par p ~trials ~seed:53 ~init:([], [])
      ~map:(fun ~rng:_ ~dead ->
        let failed = float_of_int (Deadset.count_dead dead) in
        (plan ~network ~dead:(Deadset.to_bool_array dead) (), failed))
      ~merge:(fun (tls, deads) (tl, failed) -> (tl :: tls, failed :: deads))
  in
  let avg f = Stats.mean (List.map f tls) in
  let combined =
    {
      days_to_50_pct = avg (fun t -> t.days_to_50_pct);
      days_to_90_pct = avg (fun t -> t.days_to_90_pct);
      days_to_full = avg (fun t -> t.days_to_full);
      series = median_series (List.rev tls);
      total_ship_days = avg (fun t -> t.total_ship_days);
    }
  in
  (combined, Stats.mean deads)
