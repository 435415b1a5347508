(* Every storm's characteristic variation period. *)
let period_s = 120.0

let amplitude_v_per_km storm c =
  let db_t = Disturbance.db_at storm c *. 1e-9 (* tesla *) in
  let h = db_t /. Conductivity.mu0 in
  let z = Conductivity.impedance_magnitude (Conductivity.profile_for c) ~period_s in
  (* E in V/m -> V/km *)
  z *. h *. 1000.0

let projection_factor_mean = 2.0 /. Float.pi
