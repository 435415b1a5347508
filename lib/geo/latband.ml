type tier = High | Mid | Low

let check_thresholds mid high =
  if not (0.0 <= mid && mid <= high) then
    invalid_arg "Latband: thresholds must satisfy 0 <= mid <= high"

let tier_of_abs_lat ?(mid_threshold = 40.0) ?(high_threshold = 60.0) l =
  check_thresholds mid_threshold high_threshold;
  let l = Float.abs l in
  if l > high_threshold then High else if l > mid_threshold then Mid else Low

let tier_to_string = function High -> "high" | Mid -> "mid" | Low -> "low"

let rank = function High -> 2 | Mid -> 1 | Low -> 0

let compare_tier a b = Int.compare (rank a) (rank b)

let max_tier a b = if compare_tier a b >= 0 then a else b

type histogram = { bin_deg : float; counts : float array }

let histogram ~bin_deg items =
  if bin_deg <= 0.0 then invalid_arg "Latband.histogram: bin_deg <= 0";
  let nbins_f = 180.0 /. bin_deg in
  let nbins = int_of_float nbins_f in
  if Float.abs (nbins_f -. float_of_int nbins) > 1e-9 then
    invalid_arg "Latband.histogram: bin_deg must divide 180";
  let counts = Array.make nbins 0.0 in
  let add (lat, w) =
    let i = int_of_float ((lat +. 90.0) /. bin_deg) in
    let i = Int.max 0 (Int.min (nbins - 1) i) in
    counts.(i) <- counts.(i) +. w
  in
  List.iter add items;
  { bin_deg; counts }

let pdf h =
  let total = Array.fold_left ( +. ) 0.0 h.counts in
  let density c = if total <= 0.0 then 0.0 else c /. total /. h.bin_deg *. 100.0 in
  Array.to_list
    (Array.mapi
       (fun i c ->
         let centre = -90.0 +. ((float_of_int i +. 0.5) *. h.bin_deg) in
         (centre, density c))
       h.counts)

let fraction_above items ~threshold =
  let above, total =
    List.fold_left
      (fun (a, t) (lat, w) ->
        let a = if Float.abs lat > threshold then a +. w else a in
        (a, t +. w))
      (0.0, 0.0) items
  in
  if total <= 0.0 then 0.0 else above /. total

let default_thresholds = [ 0.; 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90. ]

let threshold_curve ?(thresholds = default_thresholds) items =
  List.map (fun th -> (th, 100.0 *. fraction_above items ~threshold:th)) thresholds
