type t = {
  width : int;
  height : int;
  lat_min : float;
  lat_max : float;
  lon_min : float;
  lon_max : float;
}

let equirectangular ?(bounds = (-90.0, 90.0, -180.0, 180.0)) ~width ~height () =
  let lat_min, lat_max, lon_min, lon_max = bounds in
  if width <= 0 || height <= 0 then invalid_arg "Projection: non-positive size";
  if lat_min >= lat_max || lon_min >= lon_max then
    invalid_arg "Projection: inverted bounds";
  { width; height; lat_min; lat_max; lon_min; lon_max }

let to_xy t c =
  let lat = Coord.lat c and lon = Coord.lon c in
  if lat < t.lat_min || lat > t.lat_max || lon < t.lon_min || lon > t.lon_max then None
  else
    let fx = (lon -. t.lon_min) /. (t.lon_max -. t.lon_min) in
    let fy = (t.lat_max -. lat) /. (t.lat_max -. t.lat_min) in
    let x = Int.min (t.width - 1) (int_of_float (fx *. float_of_int t.width)) in
    let y = Int.min (t.height - 1) (int_of_float (fy *. float_of_int t.height)) in
    Some (x, y)

let of_xy t x y =
  let x = Int.max 0 (Int.min (t.width - 1) x) in
  let y = Int.max 0 (Int.min (t.height - 1) y) in
  let lon =
    t.lon_min
    +. ((float_of_int x +. 0.5) /. float_of_int t.width *. (t.lon_max -. t.lon_min))
  in
  let lat =
    t.lat_max
    -. ((float_of_int y +. 0.5) /. float_of_int t.height *. (t.lat_max -. t.lat_min))
  in
  Coord.make ~lat ~lon
