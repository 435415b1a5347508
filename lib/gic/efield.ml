let amplitude_with_profile storm profile c =
  let db_t = Disturbance.db_at storm c *. 1e-9 (* tesla *) in
  let h = db_t /. Conductivity.mu0 in
  let z =
    Conductivity.impedance_magnitude profile ~period_s:storm.Disturbance.period_s
  in
  (* E in V/m -> V/km *)
  z *. h *. 1000.0

let amplitude_v_per_km storm c =
  amplitude_with_profile storm (Conductivity.profile_for c) c

let projection_factor_mean = 2.0 /. Float.pi

let segment_voltage storm a b =
  let mid = Geo.Geodesic.midpoint a b in
  let e = amplitude_v_per_km storm mid in
  let len = Geo.Distance.haversine_km a b in
  e *. len *. projection_factor_mean
