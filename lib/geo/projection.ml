(* The whole globe, so every well-formed coordinate lands on a pixel. *)
type t = { width : int; height : int }

let equirectangular ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Projection: non-positive size";
  { width; height }

let to_xy t c =
  let fx = (Coord.lon c +. 180.0) /. 360.0 in
  let fy = (90.0 -. Coord.lat c) /. 180.0 in
  let x = Int.min (t.width - 1) (int_of_float (fx *. float_of_int t.width)) in
  let y = Int.min (t.height - 1) (int_of_float (fy *. float_of_int t.height)) in
  (x, y)

let of_xy t x y =
  let x = Int.max 0 (Int.min (t.width - 1) x) in
  let y = Int.max 0 (Int.min (t.height - 1) y) in
  let lon = -180.0 +. ((float_of_int x +. 0.5) /. float_of_int t.width *. 360.0) in
  let lat = 90.0 -. ((float_of_int y +. 0.5) /. float_of_int t.height *. 180.0) in
  Coord.make ~lat ~lon
