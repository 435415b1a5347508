let pi = 4.0 *. atan 1.0

let deg_to_rad d = d *. pi /. 180.0

let rad_to_deg r = r *. 180.0 /. pi

let normalize_lon lon =
  if Float.is_nan lon then lon
  else
    let rec wrap l =
      if l > 180.0 then wrap (l -. 360.0)
      else if l <= -180.0 then wrap (l +. 360.0)
      else l
    in
    wrap (Float.rem lon 720.0)

let angular_diff a b =
  let d = Float.abs (normalize_lon a -. normalize_lon b) in
  if d > 180.0 then 360.0 -. d else d
