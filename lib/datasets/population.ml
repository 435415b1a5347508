(* 10-degree-band shares of world population (GPWv4-2020-like marginal,
   normalized to 1).  Above |40| sums to ~0.16. *)
let band_shares =
  [
    (-60.0, -50.0, 0.0004);
    (-50.0, -40.0, 0.0034);
    (-40.0, -30.0, 0.0145);
    (-30.0, -20.0, 0.0255);
    (-20.0, -10.0, 0.0345);
    (-10.0, 0.0, 0.0590);
    (0.0, 10.0, 0.0835);
    (10.0, 20.0, 0.1375);
    (20.0, 30.0, 0.2750);
    (30.0, 40.0, 0.2160);
    (40.0, 50.0, 0.1030);
    (50.0, 60.0, 0.0442);
    (60.0, 70.0, 0.0034);
    (70.0, 80.0, 0.0001);
  ]

let clamp lo hi x = Float.max lo (Float.min hi x)

let share_between ~lat_lo ~lat_hi =
  if lat_hi < lat_lo then invalid_arg "Population.share_between: inverted interval";
  List.fold_left
    (fun acc (b_lo, b_hi, share) ->
      let lo = clamp b_lo b_hi lat_lo and hi = clamp b_lo b_hi lat_hi in
      if hi <= lo then acc else acc +. (share *. (hi -. lo) /. (b_hi -. b_lo)))
    0.0 band_shares

let latitude_weights ~bin_deg =
  if bin_deg <= 0.0 then invalid_arg "Population.latitude_weights: bin <= 0";
  let nbins_f = 180.0 /. bin_deg in
  let nbins = int_of_float nbins_f in
  if Float.abs (nbins_f -. float_of_int nbins) > 1e-9 then
    invalid_arg "Population.latitude_weights: bin must divide 180";
  List.init nbins (fun i ->
      let lo = -90.0 +. (float_of_int i *. bin_deg) in
      let hi = lo +. bin_deg in
      ((lo +. hi) /. 2.0, share_between ~lat_lo:lo ~lat_hi:hi))
