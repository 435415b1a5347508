let needs_grounding ~length_km = length_km >= 50.0

let interval_km = 1400.0

let chainages ~length_km () =
  if length_km < 0.0 then invalid_arg "Grounding.chainages: negative length";
  if not (needs_grounding ~length_km) then []
  else
    let rec mids acc k =
      let d = float_of_int k *. interval_km in
      if d >= length_km then List.rev acc else mids (d :: acc) (k + 1)
    in
    0.0 :: mids [] 1 @ [ length_km ]
