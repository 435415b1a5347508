type storm = { dst_nt : float }

let storm_of_dst dst =
  if dst > 0.0 then invalid_arg "Disturbance.storm_of_dst: Dst must be <= 0";
  { dst_nt = dst }

(* Two-point calibration in log10 |Dst|: (100 nT, 62 deg) for intense
   storms and (1200 nT, 25 deg) for Carrington-class, linear between,
   clamped to [15, 70].  Reproduces ~40 deg for the 1989 storm. *)
let auroral_boundary_deg s =
  let x = log10 (Float.max 1.0 (Float.abs s.dst_nt)) in
  let x0 = 2.0 and y0 = 62.0 in
  let slope = (25.0 -. 62.0) /. (log10 1200.0 -. 2.0) in
  Float.max 15.0 (Float.min 70.0 (y0 +. (slope *. (x -. x0))))

let peak_db_nt s =
  (* Auroral-zone deviations run ~2.5-3x |Dst| in extreme events (1989:
     ~1700 nT measured in Scandinavia for Dst -589). *)
  2.8 *. Float.abs s.dst_nt

let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

let equatorial_floor = 0.03
let transition_width_deg = 5.0

let latitude_factor s ~geomag_lat =
  let l = Float.abs geomag_lat in
  let boundary = auroral_boundary_deg s in
  let main = sigmoid ((l -. boundary) /. transition_width_deg) in
  (* Equatorial electrojet bump: measurable but small GIC at the magnetic
     equator (Carter et al. 2016). *)
  let electrojet = if l < 3.0 then 0.04 else 0.0 in
  Float.min 1.0 (equatorial_floor +. electrojet +. ((1.0 -. equatorial_floor) *. main))

let db_at s c =
  let glat = Geo.Geomagnetic.dipole_latitude c in
  peak_db_nt s *. latitude_factor s ~geomag_lat:glat
