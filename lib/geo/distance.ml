let earth_radius_km = 6371.0088

let[@inline] cos_lat c = cos (Angle.deg_to_rad (Coord.lat c))

(* The one haversine formula.  [cos_a] and [cos_b] are [cos_lat a] and
   [cos_lat b]: a caller that measures many distances from one point, or
   to points it stores, computes each cosine once and gets the same bits
   as [central_angle_rad].  Inlined, so that its float arguments are not
   boxed on the way in. *)
let[@inline] central_angle_cos_rad a ~cos_a b ~cos_b =
  let dphi = Angle.deg_to_rad (Coord.lat b -. Coord.lat a)
  and dlambda = Angle.deg_to_rad (Angle.angular_diff (Coord.lon a) (Coord.lon b)) in
  let sin_dphi = sin (dphi /. 2.0) and sin_dl = sin (dlambda /. 2.0) in
  let h = (sin_dphi *. sin_dphi) +. (cos_a *. cos_b *. sin_dl *. sin_dl) in
  2.0 *. atan2 (sqrt h) (sqrt (Float.max 0.0 (1.0 -. h)))

let central_angle_rad a b = central_angle_cos_rad a ~cos_a:(cos_lat a) b ~cos_b:(cos_lat b)

let haversine_cos_km a ~cos_a b ~cos_b = earth_radius_km *. central_angle_cos_rad a ~cos_a b ~cos_b

let haversine_km a b = earth_radius_km *. central_angle_rad a b

(* A great-circle distance is at least the meridian arc between the two
   latitudes, [earth_radius_km *. |dphi|].  The margins, 1e-9 relative and
   1e-9 km absolute, lie far above the formula's rounding error (a few
   ulps), so a pair whose latitudes differ by more than [max_dlat_deg km]
   measures more than [km] by [haversine_km] too; the absolute margin
   keeps [km = 0.] exact. *)
let km_per_deg = earth_radius_km *. Angle.deg_to_rad 1.0

let max_dlat_deg km = ((km *. (1.0 +. 1e-9)) +. 1e-9) /. km_per_deg

(* WGS-84 ellipsoid constants. *)
let wgs84_a = 6378.137
let wgs84_b = 6356.752314245
let wgs84_f = 1.0 /. 298.257223563

let vincenty_km p1 p2 =
  if Coord.equal p1 p2 then 0.0
  else
    let u1 = atan ((1.0 -. wgs84_f) *. tan (Angle.deg_to_rad (Coord.lat p1))) in
    let u2 = atan ((1.0 -. wgs84_f) *. tan (Angle.deg_to_rad (Coord.lat p2))) in
    let big_l = Angle.deg_to_rad (Coord.lon p2 -. Coord.lon p1) in
    let sin_u1 = sin u1 and cos_u1 = cos u1 in
    let sin_u2 = sin u2 and cos_u2 = cos u2 in
    let rec iterate lambda i =
      if i >= 100 then None
      else
        let sin_l = sin lambda and cos_l = cos lambda in
        let sin_sigma =
          sqrt
            (((cos_u2 *. sin_l) ** 2.0)
            +. (((cos_u1 *. sin_u2) -. (sin_u1 *. cos_u2 *. cos_l)) ** 2.0))
        in
        if sin_sigma = 0.0 then Some 0.0
        else
          let cos_sigma = (sin_u1 *. sin_u2) +. (cos_u1 *. cos_u2 *. cos_l) in
          let sigma = atan2 sin_sigma cos_sigma in
          let sin_alpha = cos_u1 *. cos_u2 *. sin_l /. sin_sigma in
          let cos2_alpha = 1.0 -. (sin_alpha *. sin_alpha) in
          let cos_2sigma_m =
            if cos2_alpha = 0.0 then 0.0
            else cos_sigma -. (2.0 *. sin_u1 *. sin_u2 /. cos2_alpha)
          in
          let c =
            wgs84_f /. 16.0 *. cos2_alpha *. (4.0 +. (wgs84_f *. (4.0 -. (3.0 *. cos2_alpha))))
          in
          let lambda' =
            big_l
            +. ((1.0 -. c) *. wgs84_f *. sin_alpha
               *. (sigma
                  +. (c *. sin_sigma
                     *. (cos_2sigma_m +. (c *. cos_sigma *. (-1.0 +. (2.0 *. cos_2sigma_m *. cos_2sigma_m)))))))
          in
          if Float.abs (lambda' -. lambda) < 1e-12 then
            let u_sq = cos2_alpha *. ((wgs84_a ** 2.0) -. (wgs84_b ** 2.0)) /. (wgs84_b ** 2.0) in
            let big_a =
              1.0 +. (u_sq /. 16384.0 *. (4096.0 +. (u_sq *. (-768.0 +. (u_sq *. (320.0 -. (175.0 *. u_sq)))))))
            in
            let big_b =
              u_sq /. 1024.0 *. (256.0 +. (u_sq *. (-128.0 +. (u_sq *. (74.0 -. (47.0 *. u_sq))))))
            in
            let delta_sigma =
              big_b *. sin_sigma
              *. (cos_2sigma_m
                 +. (big_b /. 4.0
                    *. ((cos_sigma *. (-1.0 +. (2.0 *. cos_2sigma_m *. cos_2sigma_m)))
                       -. (big_b /. 6.0 *. cos_2sigma_m
                          *. (-3.0 +. (4.0 *. sin_sigma *. sin_sigma))
                          *. (-3.0 +. (4.0 *. cos_2sigma_m *. cos_2sigma_m))))))
            in
            Some (wgs84_b *. big_a *. (sigma -. delta_sigma))
          else iterate lambda' (i + 1)
    in
    match iterate big_l 0 with
    | Some d -> d
    | None -> haversine_km p1 p2

let path_length_km points =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (acc +. haversine_km a b) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 points
