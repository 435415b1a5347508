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
