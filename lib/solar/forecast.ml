type timeline = {
  detection_delay_h : float;
  transit_h : float;
  l1_confirmation_h : float;
  actionable_lead_h : float;
}

let l1_distance_km = 1.5e6

let timeline cme =
  let transit_h = Cme.transit_hours cme in
  let arrival = Cme.arrival_speed_km_s cme in
  let detection_delay_h = 1.0 in
  let l1_confirmation_h = l1_distance_km /. arrival /. 3600.0 in
  {
    detection_delay_h;
    transit_h;
    l1_confirmation_h;
    actionable_lead_h = Float.max 0.0 (transit_h -. detection_delay_h);
  }

let pp_timeline ppf tl =
  Format.fprintf ppf
    "detect +%.1fh; impact +%.1fh; L1 confirm %.0f min before; actionable %.1fh"
    tl.detection_delay_h tl.transit_h (tl.l1_confirmation_h *. 60.0) tl.actionable_lead_h
