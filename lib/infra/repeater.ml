type spec = {
  spacing_km : float;
  operating_current_a : float;
  lifetime_years : float;
}

let default ~spacing_km =
  if spacing_km <= 0.0 then invalid_arg "Repeater.default: spacing <= 0";
  {
    spacing_km;
    operating_current_a = 1.0;
    lifetime_years = 25.0;
  }

let paper_spacings_km = [ 50.0; 100.0; 150.0 ]

let count_for_length ~spacing_km ~length_km =
  if spacing_km <= 0.0 then invalid_arg "Repeater.count_for_length: spacing <= 0";
  if length_km < 0.0 then invalid_arg "Repeater.count_for_length: negative length";
  if length_km <= spacing_km then 0
  else
    (* Repeaters at spacing, 2*spacing, ... strictly inside the cable.
       [int_of_float] is unspecified past [max_int], so the count
       saturates there instead of falling as the spacing shrinks. *)
    let slots = Float.ceil (length_km /. spacing_km) in
    if slots >= float_of_int max_int then max_int else Int.max 0 (int_of_float slots - 1)
