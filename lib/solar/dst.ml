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

let representative_dst = function
  | Quiet -> -15.0
  | Minor -> -40.0
  | Moderate -> -75.0
  | Intense -> -175.0
  | Severe -> -425.0
  | Extreme -> -725.0
  | Carrington -> -1200.0
