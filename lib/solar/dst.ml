type severity = Quiet | Minor | Moderate | Intense | Severe | Extreme | Carrington

let severity_of_dst dst =
  if dst > 100.0 then invalid_arg "Dst.severity_of_dst: not a storm-time Dst";
  if dst > -30.0 then Quiet
  else if dst > -50.0 then Minor
  else if dst > -100.0 then Moderate
  else if dst > -250.0 then Intense
  else if dst > -600.0 then Severe
  else if dst > -850.0 then Extreme
  else Carrington

let severity_to_string = function
  | Quiet -> "quiet"
  | Minor -> "minor"
  | Moderate -> "moderate"
  | Intense -> "intense"
  | Severe -> "severe"
  | Extreme -> "extreme"
  | Carrington -> "carrington"

let rank = function
  | Quiet -> 0
  | Minor -> 1
  | Moderate -> 2
  | Intense -> 3
  | Severe -> 4
  | Extreme -> 5
  | Carrington -> 6

let compare_severity a b = Int.compare (rank a) (rank b)
