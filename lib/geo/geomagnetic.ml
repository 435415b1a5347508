let north_pole = Coord.make ~lat:80.65 ~lon:(-72.68)

let dipole_latitude c =
  (* Geomagnetic latitude = 90 - angular distance to dipole north pole. *)
  let colat_rad = Distance.central_angle_rad c north_pole in
  90.0 -. Angle.rad_to_deg colat_rad

let l_shell c =
  let lam = Angle.deg_to_rad (dipole_latitude c) in
  let cl = cos lam in
  if cl < 0.0316 then 1000.0 else Float.min 1000.0 (1.0 /. (cl *. cl))
