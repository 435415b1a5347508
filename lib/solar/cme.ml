type t = {
  speed_km_s : float;
  angular_width_deg : float;
  southward_b_nt : float;
  direction_offset_deg : float;
}

let au_km = 1.496e8

let southward_b_of_speed v =
  (* Empirical: slow CMEs ~5-10 nT southward component, extreme ones
     approach 60-100 nT (Carrington estimates).  Linear in speed above the
     ambient wind. *)
  Float.max 2.0 (0.03 *. (v -. 300.0))

let make ?(angular_width_deg = 60.0) ?southward_b_nt ?(direction_offset_deg = 0.0)
    ~speed_km_s () =
  if speed_km_s <= 0.0 || speed_km_s > 5000.0 then
    invalid_arg "Cme.make: speed outside (0, 5000] km/s";
  if angular_width_deg <= 0.0 || angular_width_deg > 360.0 then
    invalid_arg "Cme.make: width outside (0, 360]";
  let southward_b_nt =
    match southward_b_nt with Some b -> Float.max 0.0 b | None -> southward_b_of_speed speed_km_s
  in
  { speed_km_s; angular_width_deg; southward_b_nt; direction_offset_deg }

(* Drag-based model: dv/dt = -gamma (v - w) |v - w|.  The drag parameter
   falls with launch speed (massive fast ejecta are less decelerated):
   gamma = 2e-8 / (1 + (v0/900)^2) per km, calibrated so a 2700 km/s
   Carrington-class CME arrives in ~17 h and a 450 km/s slow CME in ~3.7
   days.  Integrated numerically from r = 20 Rs to 1 AU. *)
let gamma_for_speed v0 = 2.0e-8 /. (1.0 +. ((v0 /. 900.0) ** 2.0))

let start_km = 20.0 *. 6.96e5 (* 20 solar radii *)

let integrate ?(solar_wind_km_s = 450.0) cme =
  let w = solar_wind_km_s in
  let gamma_per_km = gamma_for_speed cme.speed_km_s in
  let dt = 60.0 (* s *) in
  let rec step r v t =
    if r >= au_km then (v, t)
    else
      let dv = -.gamma_per_km *. (v -. w) *. Float.abs (v -. w) *. dt in
      let v' = Float.max (Float.min v w) (v +. dv) in
      step (r +. (v' *. dt)) v' (t +. dt)
  in
  step start_km cme.speed_km_s 0.0

let transit_hours ?solar_wind_km_s cme =
  let _, t = integrate ?solar_wind_km_s cme in
  (* Time to cover the first 20 Rs at launch speed, plus integrated leg. *)
  (t +. (start_km /. cme.speed_km_s)) /. 3600.0

let arrival_speed_km_s ?solar_wind_km_s cme =
  let v, _ = integrate ?solar_wind_km_s cme in
  v

(* O'Brien & McPherron-style coupling: Dst_min ~ -alpha * v * Bs with v in
   km/s and Bs in nT; alpha calibrated so that the 2012 near-miss event
   (v ~ 2000 km/s arrival, Bs ~ 50 nT) maps to ~ -1150 nT as estimated by
   Baker et al. *)
let coupling_alpha = 1.15e-2

let expected_dst cme =
  let v = arrival_speed_km_s cme in
  -.(coupling_alpha *. v *. cme.southward_b_nt)

let carrington_1859 =
  make ~speed_km_s:2700.0 ~southward_b_nt:65.0 ~angular_width_deg:90.0 ()

let new_york_railroad_1921 =
  make ~speed_km_s:2200.0 ~southward_b_nt:55.0 ~angular_width_deg:80.0 ()

let quebec_1989 = make ~speed_km_s:1500.0 ~southward_b_nt:28.0 ~angular_width_deg:70.0 ()

let halloween_2003 = make ~speed_km_s:2000.0 ~southward_b_nt:28.0 ~angular_width_deg:80.0 ()

let near_miss_2012 =
  make ~speed_km_s:2500.0 ~southward_b_nt:60.0 ~angular_width_deg:90.0
    ~direction_offset_deg:120.0 ()
