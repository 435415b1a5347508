type series = {
  cables_mean : float;
  cables_std : float;
  nodes_mean : float;
  nodes_std : float;
}

let cables_failed_pct net dead =
  let m = Infra.Network.nb_cables net in
  if m = 0 then 0.0 else 100.0 *. float_of_int (Deadset.count_dead dead) /. float_of_int m

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
  if !total = 0 then 0.0 else 100.0 *. float_of_int !unreachable /. float_of_int !total

let trials_total = Obs.Metrics.counter "mc.trials_total"
let cables_failed_total = Obs.Metrics.counter "mc.cables_failed"

let observe_trial dead =
  if Obs.enabled () then begin
    Obs.Metrics.incr trials_total;
    Obs.Metrics.add cables_failed_total (Deadset.count_dead dead)
  end

let run_plan ?(trials = 10) ?jobs ~seed plan =
  if trials <= 0 then invalid_arg "Montecarlo.run: trials <= 0";
  Obs.Span.with_ ~name:"mc.run" @@ fun () ->
  let network = Plan.network plan in
  let cables, nodes =
    Plan.run_trials_par ?jobs plan ~trials ~seed ~init:([], [])
      ~map:(fun ~rng:_ ~dead ->
        Obs.Span.with_ ~name:"mc.trial" @@ fun () ->
        observe_trial dead;
        (cables_failed_pct network dead, Plan.unreachable_attached_pct plan dead))
      ~merge:(fun (cables, nodes) (c, n) -> (c :: cables, n :: nodes))
  in
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
