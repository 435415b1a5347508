type spacecraft = {
  name : string;
  mass_kg : float;
  drag_area_m2 : float;
  cd : float;
  thrust_n : float;
}

let starlink_v1 =
  { name = "starlink-v1"; mass_kg = 260.0; drag_area_m2 = 3.0; cd = 2.2; thrust_n = 0.08 }

let ballistic_coefficient s = s.cd *. s.drag_area_m2 /. s.mass_kg

let thrust_margin s conditions ~alt_km =
  if s.thrust_n <= 0.0 then 0.0
  else
    let density_kg_m3 = Atmosphere.density_kg_m3 conditions ~alt_km in
    let drag =
      Orbit.drag_acceleration_m_s2 ~alt_km ~density_kg_m3
        ~ballistic_m2_kg:(ballistic_coefficient s)
    in
    if drag <= 0.0 then Float.infinity else s.thrust_n /. s.mass_kg /. drag

let can_hold_altitude s conditions ~alt_km = thrust_margin s conditions ~alt_km > 1.0

let altitude_after s conditions ~alt_km ~days =
  if days < 0.0 then invalid_arg "Decay.altitude_after: negative duration";
  let b = ballistic_coefficient s in
  let dt = 600.0 (* s *) in
  let steps = int_of_float (Float.ceil (days *. 86400.0 /. dt)) in
  let alt = ref alt_km in
  (try
     for _ = 1 to steps do
       if !alt <= Orbit.reentry_alt_km then raise Exit;
       let density_kg_m3 = Atmosphere.density_kg_m3 conditions ~alt_km:!alt in
       let da =
         Orbit.decay_rate_m_per_s ~alt_km:!alt ~density_kg_m3 ~ballistic_m2_kg:b *. dt
       in
       alt := Float.max Orbit.reentry_alt_km (!alt +. (da /. 1000.0))
     done
   with Exit -> ());
  !alt

let lifetime_days s conditions ~alt_km =
  let max_days = 36500.0 in
  (* March forward in exponentially growing chunks; bisect the last one. *)
  let rec march t alt =
    if alt <= Orbit.reentry_alt_km +. 1e-6 then t
    else if t >= max_days then max_days
    else
      let chunk = Float.max 0.1 (t /. 4.0) in
      let alt' = altitude_after s conditions ~alt_km:alt ~days:chunk in
      march (Float.min max_days (t +. chunk)) alt'
  in
  march 0.0 alt_km
