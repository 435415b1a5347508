(* Spherical linear interpolation between two points expressed as unit
   vectors; this is exact on the sphere and avoids longitude-wrap issues. *)

type vec3 = { x : float; y : float; z : float }

let to_vec c =
  let phi = Angle.deg_to_rad (Coord.lat c) and lam = Angle.deg_to_rad (Coord.lon c) in
  { x = cos phi *. cos lam; y = cos phi *. sin lam; z = sin phi }

let of_vec v =
  let r = sqrt ((v.x *. v.x) +. (v.y *. v.y) +. (v.z *. v.z)) in
  let lat = Angle.rad_to_deg (asin (v.z /. r)) in
  let lon = Angle.rad_to_deg (atan2 v.y v.x) in
  Coord.make ~lat ~lon

let intermediate a b f =
  if f <= 0.0 then a
  else if f >= 1.0 then b
  else
    let omega = Distance.central_angle_rad a b in
    if omega < 1e-12 then a
    else
      let va = to_vec a and vb = to_vec b in
      let sin_o = sin omega in
      if Float.abs sin_o < 1e-12 then
        (* Antipodal: pick the meridian route through the pole closest to a. *)
        let via_lat = if Coord.lat a >= 0.0 then 90.0 else -90.0 in
        let pole = Coord.make ~lat:via_lat ~lon:(Coord.lon a) in
        let vp = to_vec pole in
        let wa = sin ((1.0 -. f) *. omega) and wb = sin (f *. omega) in
        of_vec
          {
            x = (wa *. va.x) +. (wb *. vp.x);
            y = (wa *. va.y) +. (wb *. vp.y);
            z = (wa *. va.z) +. (wb *. vp.z);
          }
      else
        let wa = sin ((1.0 -. f) *. omega) /. sin_o and wb = sin (f *. omega) /. sin_o in
        of_vec
          {
            x = (wa *. va.x) +. (wb *. vb.x);
            y = (wa *. va.y) +. (wb *. vb.y);
            z = (wa *. va.z) +. (wb *. vb.z);
          }

let waypoints a b ~n =
  if n < 1 then invalid_arg "Geodesic.waypoints: n < 1";
  List.init (n + 1) (fun i -> intermediate a b (float_of_int i /. float_of_int n))

let sample_every_km a b ~step_km =
  if step_km <= 0.0 then invalid_arg "Geodesic.sample_every_km: step <= 0";
  let total = Distance.haversine_km a b in
  let n = Int.max 1 (int_of_float (ceil (total /. step_km))) in
  waypoints a b ~n

let point_at_km path d =
  match path with
  | [] -> invalid_arg "Geodesic.point_at_km: empty path"
  | [ p ] -> p
  | first :: _ ->
      if d <= 0.0 then first
      else
        let rec walk remaining = function
          | a :: (b :: _ as rest) ->
              let hop = Distance.haversine_km a b in
              if remaining <= hop then
                if hop < 1e-9 then a else intermediate a b (remaining /. hop)
              else walk (remaining -. hop) rest
          | [ last ] -> last
          | [] -> assert false
        in
        walk d path

let positions_along path ~spacing_km =
  if spacing_km <= 0.0 then invalid_arg "Geodesic.positions_along: spacing <= 0";
  let total = Distance.path_length_km path in
  let rec collect acc k =
    let d = float_of_int k *. spacing_km in
    if d >= total then List.rev acc
    else collect ((d, point_at_km path d) :: acc) (k + 1)
  in
  if total <= spacing_km then [] else collect [] 1
