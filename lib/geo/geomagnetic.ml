let north_pole = Coord.make ~lat:80.65 ~lon:(-72.68)

let dipole_latitude c =
  (* Geomagnetic latitude = 90 - angular distance to dipole north pole. *)
  let colat_rad = Distance.central_angle_rad c north_pole in
  90.0 -. Angle.rad_to_deg colat_rad
