type shell = {
  name : string;
  alt_km : float;
  inclination_deg : float;
  planes : int;
  sats_per_plane : int;
}

type t = { name : string; shells : shell list }

let shell_size s = s.planes * s.sats_per_plane

let size t = List.fold_left (fun acc s -> acc + shell_size s) 0 t.shells

let starlink_phase1 =
  {
    name = "starlink-phase1";
    shells =
      [
        { name = "shell-1"; alt_km = 550.0; inclination_deg = 53.0; planes = 72; sats_per_plane = 22 };
        { name = "shell-2"; alt_km = 540.0; inclination_deg = 53.2; planes = 72; sats_per_plane = 22 };
        { name = "shell-3"; alt_km = 570.0; inclination_deg = 70.0; planes = 36; sats_per_plane = 20 };
        { name = "shell-4"; alt_km = 560.0; inclination_deg = 97.6; planes = 6; sats_per_plane = 58 };
        { name = "shell-5"; alt_km = 560.0; inclination_deg = 97.6; planes = 4; sats_per_plane = 43 };
      ];
  }

let coverage_cap_deg shell ~elevation_mask_deg =
  let re = Orbit.earth_radius_m in
  let r = re +. (shell.alt_km *. 1000.0) in
  let e = Geo.Angle.deg_to_rad elevation_mask_deg in
  (* Central angle: psi = acos(Re cos e / r) - e. *)
  Geo.Angle.rad_to_deg (acos (re *. cos e /. r) -. e)

(* Long-run surface density (satellites per steradian) of a circular-orbit
   shell at latitude phi:
     g(phi) = N / (2 pi^2) * 1 / sqrt(sin^2 i - sin^2 phi)   for |phi| < i.
   (Integrates to N over the sphere.)  For retrograde shells use the
   supplementary inclination. *)
let shell_density_per_sr shell ~lat_deg =
  let i =
    let i0 = shell.inclination_deg in
    if i0 > 90.0 then 180.0 -. i0 else i0
  in
  let phi = Float.abs lat_deg in
  if phi >= i then 0.0
  else
    let si = sin (Geo.Angle.deg_to_rad i) and sp = sin (Geo.Angle.deg_to_rad phi) in
    let denom = sqrt ((si *. si) -. (sp *. sp)) in
    if denom < 1e-6 then
      (* At the inclination edge the analytic density diverges; cap it. *)
      float_of_int (shell_size shell) /. (2.0 *. Float.pi *. Float.pi *. 1e-6)
    else float_of_int (shell_size shell) /. (2.0 *. Float.pi *. Float.pi *. denom)

let visible_satellites t ~lat_deg ~elevation_mask_deg =
  List.fold_left
    (fun acc shell ->
      let psi = Geo.Angle.deg_to_rad (coverage_cap_deg shell ~elevation_mask_deg) in
      (* Solid angle of the coverage cap. *)
      let cap_sr = 2.0 *. Float.pi *. (1.0 -. cos psi) in
      acc +. (shell_density_per_sr shell ~lat_deg *. cap_sr))
    0.0 t.shells

let covered t ~lat_deg ~elevation_mask_deg =
  visible_satellites t ~lat_deg ~elevation_mask_deg >= 1.0

let coverage_fraction t users =
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 users in
  if total <= 0.0 then 0.0
  else
    List.fold_left
      (fun acc (lat, w) ->
        if covered t ~lat_deg:lat ~elevation_mask_deg:25.0 then acc +. w else acc)
      0.0 users
    /. total
