type layer = { thickness_km : float; resistivity_ohm_m : float }

type profile = { name : string; layers : layer list }

let mu0 = 4.0e-7 *. Float.pi

let make_profile ~name layers =
  if layers = [] then invalid_arg "Conductivity.make_profile: no layers";
  List.iter
    (fun l ->
      if l.resistivity_ohm_m <= 0.0 then
        invalid_arg "Conductivity.make_profile: non-positive resistivity";
      if l.thickness_km <= 0.0 then
        invalid_arg "Conductivity.make_profile: non-positive thickness")
    layers;
  { name; layers }

let shield =
  make_profile ~name:"shield"
    [ { thickness_km = 15.0; resistivity_ohm_m = 20000.0 };
      { thickness_km = 10.0; resistivity_ohm_m = 1000.0 };
      { thickness_km = 125.0; resistivity_ohm_m = 500.0 };
      { thickness_km = 200.0; resistivity_ohm_m = 100.0 };
      { thickness_km = 1.0; resistivity_ohm_m = 3.0 } ]

let plains =
  make_profile ~name:"plains"
    [ { thickness_km = 2.0; resistivity_ohm_m = 30.0 };
      { thickness_km = 20.0; resistivity_ohm_m = 300.0 };
      { thickness_km = 150.0; resistivity_ohm_m = 100.0 };
      { thickness_km = 1.0; resistivity_ohm_m = 3.0 } ]

let coastal =
  make_profile ~name:"coastal"
    [ { thickness_km = 1.0; resistivity_ohm_m = 5.0 };
      { thickness_km = 20.0; resistivity_ohm_m = 100.0 };
      { thickness_km = 150.0; resistivity_ohm_m = 50.0 };
      { thickness_km = 1.0; resistivity_ohm_m = 3.0 } ]

let ocean =
  make_profile ~name:"ocean"
    [ { thickness_km = 4.0; resistivity_ohm_m = 0.3 };
      { thickness_km = 8.0; resistivity_ohm_m = 1000.0 };
      { thickness_km = 150.0; resistivity_ohm_m = 100.0 };
      { thickness_km = 1.0; resistivity_ohm_m = 3.0 } ]

let profile_for c =
  if not (Geo.Region.on_land c) then ocean
  else if Geo.Coord.abs_lat c > 55.0 then shield
  else if Geo.Coord.abs_lat c < 20.0 then coastal
  else plains

(* 1-D magnetotelluric recursion.  For the bottom half-space:
     Z_N = i w mu0 / k_N,  k_n = sqrt (i w mu0 / rho_n).
   Moving up through a layer of thickness d:
     r_n   = (1 - k_n Z_{n+1} / (i w mu0)) / (1 + k_n Z_{n+1} / (i w mu0))
     Z_n   = i w mu0 (1 - r_n e^{-2 k_n d}) / (k_n (1 + r_n e^{-2 k_n d})) *)
let surface_impedance p ~angular_freq =
  let open Complex in
  let iwu = { re = 0.0; im = angular_freq *. mu0 } in
  let k_of rho = sqrt (div iwu { re = rho; im = 0.0 }) in
  let rec up = function
    | [] -> invalid_arg "Conductivity.surface_impedance: no layers"
    | [ bottom ] -> div iwu (k_of bottom.resistivity_ohm_m)
    | l :: rest ->
        let z_below = up rest in
        let k = k_of l.resistivity_ohm_m in
        let kz = div (mul k z_below) iwu in
        let r = div (Complex.sub one kz) (add one kz) in
        let d_m = l.thickness_km *. 1000.0 in
        let e = exp (mul { re = -2.0 *. d_m; im = 0.0 } k) in
        let re_term = mul r e in
        div (mul iwu (Complex.sub one re_term)) (mul k (add one re_term))
  in
  up p.layers

(* A finite positive period makes ω > 0 ([surface_impedance] has no
   check of its own): 2π over the largest float is still a normal
   float. *)
let impedance_magnitude p ~period_s =
  if not (period_s > 0.0 && Float.is_finite period_s) then
    invalid_arg "Conductivity.impedance_magnitude: period not finite and > 0";
  Complex.norm (surface_impedance p ~angular_freq:(2.0 *. Float.pi /. period_s))
