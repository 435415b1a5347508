type series = {
  cables_mean : float;
  cables_std : float;
  nodes_mean : float;
  nodes_std : float;
}

let pct_of part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let cables_failed_pct net dead =
  pct_of (Deadset.count_dead dead) (Infra.Network.nb_cables net)

let nodes_unreachable_pct net dead =
  let n = Infra.Network.nb_nodes net in
  let has_cable = Array.make n false and has_live = Array.make n false in
  for c = 0 to Infra.Network.nb_cables net - 1 do
    let cable = Infra.Network.cable net c in
    List.iter
      (fun l ->
        has_cable.(l) <- true;
        if not (Deadset.get dead c) then has_live.(l) <- true)
      cable.Infra.Cable.landings
  done;
  let total = ref 0 and unreachable = ref 0 in
  for i = 0 to n - 1 do
    if has_cable.(i) then begin
      incr total;
      if not has_live.(i) then incr unreachable
    end
  done;
  pct_of !unreachable !total

let trials_total = Obs.Metrics.counter "mc.trials_total"
let cables_failed_total = Obs.Metrics.counter "mc.cables_failed"

let run_plan ?(trials = 10) ?jobs ~seed plan =
  if trials <= 0 then invalid_arg "Montecarlo.run: trials <= 0";
  Obs.Span.with_ ~name:"mc.run" @@ fun () ->
  let m = Plan.nb_cables plan in
  (* No Obs work per trial: [map] returns the dead count, [merge] (on
     the calling domain, in trial order) turns it into the percentage
     and sums it, and the counters are settled once per run. *)
  let failed = ref 0 in
  let cables, nodes =
    Plan.run_trials_par ?jobs plan ~trials ~seed ~init:([], [])
      ~map:(fun ~rng:_ ~dead -> (Deadset.count_dead dead, Plan.unreachable_attached_pct plan dead))
      ~merge:(fun (cables, nodes) (k, n) ->
        failed := !failed + k;
        (pct_of k m :: cables, n :: nodes))
  in
  Obs.Metrics.add trials_total trials;
  Obs.Metrics.add cables_failed_total !failed;
  let cables_mean, cables_std = Stats.mean_stddev cables in
  let nodes_mean, nodes_std = Stats.mean_stddev nodes in
  { cables_mean; cables_std; nodes_mean; nodes_std }

let run ?(trials = 10) ~seed ~network ~spacing_km ~model () =
  if trials <= 0 then invalid_arg "Montecarlo.run: trials <= 0";
  if spacing_km <= 0.0 then invalid_arg "Montecarlo.run: spacing <= 0";
  let plan = Plan.compile ~spacing_km ~network ~model () in
  run_plan ~trials ~seed plan

let expected_cables_failed_pct ~network ~spacing_km ~model =
  Plan.expected_cables_failed_pct (Plan.compile ~spacing_km ~network ~model ())
