type t = { lat : float; lon : float }

exception Invalid_coordinate of string

let valid_float f = Float.is_finite f

let make ~lat ~lon =
  if not (valid_float lat && valid_float lon) then
    raise (Invalid_coordinate (Printf.sprintf "non-finite coordinate (%f, %f)" lat lon));
  if lat < -90.0 || lat > 90.0 then
    raise (Invalid_coordinate (Printf.sprintf "latitude %f out of [-90, 90]" lat));
  { lat; lon = Angle.normalize_lon lon }

let lat c = c.lat
let lon c = c.lon

let equal a b =
  Float.abs (a.lat -. b.lat) <= 1e-9 && Angle.angular_diff a.lon b.lon <= 1e-9

let abs_lat c = Float.abs c.lat
