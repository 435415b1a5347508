let mu_earth = 3.986004418e14
let earth_radius_m = 6.371e6
let reentry_alt_km = 120.0

let semi_major_m ~alt_km =
  if alt_km <= 0.0 || alt_km > 10000.0 then
    invalid_arg "Orbit.semi_major_m: altitude outside (0, 10000] km";
  earth_radius_m +. (alt_km *. 1000.0)

let speed_m_s ~alt_km = sqrt (mu_earth /. semi_major_m ~alt_km)

let decay_rate_m_per_s ~alt_km ~density_kg_m3 ~ballistic_m2_kg =
  let a = semi_major_m ~alt_km in
  -.(sqrt (mu_earth *. a) *. density_kg_m3 *. ballistic_m2_kg)

let drag_acceleration_m_s2 ~alt_km ~density_kg_m3 ~ballistic_m2_kg =
  let v = speed_m_s ~alt_km in
  density_kg_m3 *. v *. v *. ballistic_m2_kg
