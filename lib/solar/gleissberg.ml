let period_years = 88.0

(* 1910 was the 20th-century minimum; adding integer periods puts the next
   minima near 1998, consistent with the weak cycles 23-24. *)
let reference_minimum = 1910.0

let phase year =
  let p = Float.rem ((year -. reference_minimum) /. period_years) 1.0 in
  if p < 0.0 then p +. 1.0 else p

let modulation year =
  (* Cosine modulation between 0.5 (minimum) and 2.0 (maximum): a factor-4
     swing in extreme-event frequency. *)
  let p = phase year in
  let c = cos (2.0 *. Float.pi *. p) in
  (* c = 1 at minimum -> 0.5; c = -1 at maximum -> 2.0; geometric blend. *)
  2.0 ** (-.c)

let next_maximum_after year =
  let p = phase year in
  let to_max = if p < 0.5 then 0.5 -. p else 1.5 -. p in
  year +. (to_max *. period_years)
