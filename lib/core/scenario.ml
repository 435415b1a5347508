type impact = {
  network : string;
  model : Failure_model.t;
  cables_failed_pct : float;
  nodes_unreachable_pct : float;
}

type t = {
  cme : Spaceweather.Cme.t;
  dst_nt : float;
  severity : Spaceweather.Dst.severity;
  timeline : Spaceweather.Forecast.timeline;
  impacts : impact list;
}

let model_for_severity sev =
  let open Spaceweather.Dst in
  match sev with
  | Carrington -> Failure_model.s1
  | Extreme | Severe -> Failure_model.s2
  | Intense -> Failure_model.tiered ~high:0.01 ~mid:0.001 ~low:0.0001
  | Moderate | Minor | Quiet ->
      Failure_model.tiered ~high:0.001 ~mid:0.0001 ~low:0.00001

let impact_of ~trials ~seed ~model (name, net) =
  let plan = Plan.compile ~spacing_km:150.0 ~network:net ~model () in
  let series = Montecarlo.run_plan ~trials ~seed plan in
  {
    network = name;
    model;
    cables_failed_pct = series.Montecarlo.cables_mean;
    nodes_unreachable_pct = series.Montecarlo.nodes_mean;
  }

let run ?(trials = 10) ?(use_physical = false) ~cme ~networks () =
  let dst_nt = Spaceweather.Cme.expected_dst cme in
  let severity = Spaceweather.Dst.severity_of_dst dst_nt in
  let timeline = Spaceweather.Forecast.timeline cme in
  let model = model_for_severity severity in
  let probabilistic =
    List.map (impact_of ~trials ~seed:17 ~model) networks
  in
  let physical =
    if not use_physical then []
    else
      let model = Failure_model.Gic_physical { dst_nt; scale_a = 30.0 } in
      List.map (impact_of ~trials ~seed:18 ~model) networks
  in
  { cme; dst_nt; severity; timeline; impacts = probabilistic @ physical }

let pp ppf t =
  Format.fprintf ppf "@[<v>CME %.0f km/s -> Dst %.0f nT (%s)@,%a@,"
    t.cme.Spaceweather.Cme.speed_km_s t.dst_nt
    (Spaceweather.Dst.severity_to_string t.severity)
    Spaceweather.Forecast.pp_timeline t.timeline;
  List.iter
    (fun i ->
      Format.fprintf ppf "%-12s %-24s cables %5.1f%%  nodes %5.1f%%@," i.network
        (Failure_model.to_string i.model) i.cables_failed_pct i.nodes_unreachable_pct)
    t.impacts;
  Format.fprintf ppf "@]"
