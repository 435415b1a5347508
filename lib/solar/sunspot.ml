type cycle = { number : int; start_year : float; peak_ssn : float }

let cycles =
  [ { number = 12; start_year = 1878.9; peak_ssn = 124.4 };
    { number = 13; start_year = 1890.2; peak_ssn = 146.5 };
    { number = 14; start_year = 1902.0; peak_ssn = 107.1 };
    { number = 15; start_year = 1913.6; peak_ssn = 175.7 };
    { number = 16; start_year = 1923.6; peak_ssn = 130.2 };
    { number = 17; start_year = 1933.7; peak_ssn = 198.6 };
    { number = 18; start_year = 1944.1; peak_ssn = 218.7 };
    { number = 19; start_year = 1954.3; peak_ssn = 285.0 };
    { number = 20; start_year = 1964.8; peak_ssn = 156.6 };
    { number = 21; start_year = 1976.3; peak_ssn = 232.9 };
    { number = 22; start_year = 1986.7; peak_ssn = 212.5 };
    { number = 23; start_year = 1996.4; peak_ssn = 180.3 };
    { number = 24; start_year = 2008.9; peak_ssn = 116.4 };
    { number = 25; start_year = 2019.9; peak_ssn = 115.0 } ]

let cycle_25_weak = { number = 25; start_year = 2019.9; peak_ssn = 115.0 }
let cycle_25_strong = { number = 25; start_year = 2019.9; peak_ssn = 233.0 }

let find_cycle n = List.find_opt (fun c -> c.number = n) cycles

(* Hathaway (1994)-style shape: R(t) = A (t/b)^3 / (exp((t/b)^2) - c),
   t in months, c = 0.71.  The rise-time parameter b encodes the
   Waldmeier effect (stronger cycles rise faster): peak occurs near
   1.08 b months, i.e. ~4.1 years for a weak cycle and ~3.5 years for a
   very strong one. *)
let shape_c = 0.71

let shape_b amplitude =
  Float.max 36.0 (Float.min 50.0 (50.0 -. (amplitude /. 25.0)))

(* The Hathaway A parameter relates to the peak value; peak of the shape
   with amplitude A is about A * 0.0143 * b... rather than deriving the
   closed form we normalize numerically: find the shape maximum once and
   scale so that [amplitude] is the actual peak SSN. *)
let raw_shape ~a ~b t =
  if t <= 0.0 then 0.0
  else
    let x = t /. b in
    a *. (x ** 3.0) /. (exp (x *. x) -. shape_c)

let shape_peak_value b =
  (* Maximize the unit-amplitude shape numerically over 0..120 months. *)
  let best = ref 0.0 in
  for i = 1 to 1200 do
    let t = float_of_int i /. 10.0 in
    let v = raw_shape ~a:1.0 ~b t in
    if v > !best then best := v
  done;
  !best

(* The peak depends only on [b], yet [shape] runs once per cycle per
   sampled month: a decadal-risk study asks for the same handful of
   peaks tens of thousands of times.  Peaks are memoized per [b] in an
   immutable list behind an atomic, so readers never block and any
   domain may call [shape].  Two domains racing on a new [b] both scan
   and the loser's CAS retries against a list that already holds the
   bit-identical value.  Past [peak_cache_bound] distinct [b]s (the
   record has 15 amplitudes) a peak is scanned on every call. *)
let peak_cache_bound = 32
let peak_cache : (float * float) list Atomic.t = Atomic.make []

let rec find_peak b = function
  | [] -> None
  | (b', v) :: rest -> if Float.equal b b' then Some v else find_peak b rest

let cached_peak_value b =
  match find_peak b (Atomic.get peak_cache) with
  | Some v -> v
  | None ->
      let v = shape_peak_value b in
      let rec publish () =
        let cur = Atomic.get peak_cache in
        if find_peak b cur = None && List.length cur < peak_cache_bound
           && not (Atomic.compare_and_set peak_cache cur ((b, v) :: cur))
        then publish ()
      in
      publish ();
      v

let shape ~amplitude ~months_since_min =
  let b = shape_b amplitude in
  let peak = cached_peak_value b in
  if peak <= 0.0 then 0.0
  else raw_shape ~a:(amplitude /. peak) ~b months_since_min

let ssn_at ?(cycle25 = cycle_25_weak) year =
  let effective_cycles =
    List.map (fun c -> if c.number = 25 then cycle25 else c) cycles
  in
  List.fold_left
    (fun acc c ->
      let months = (year -. c.start_year) *. 12.0 in
      if months <= 0.0 || months > 180.0 then acc
      else acc +. shape ~amplitude:c.peak_ssn ~months_since_min:months)
    0.0 effective_cycles

let series ?cycle25 ~start ~stop ~step () =
  if step <= 0.0 then invalid_arg "Sunspot.series: step <= 0";
  if stop < start then invalid_arg "Sunspot.series: stop < start";
  let n = int_of_float (Float.floor ((stop -. start) /. step)) in
  List.init (n + 1) (fun i ->
      let year = start +. (float_of_int i *. step) in
      (year, ssn_at ?cycle25 year))

let cycle_peak_year c =
  let b = shape_b c.peak_ssn in
  (* The unit shape peaks near t = 1.08 b months. *)
  c.start_year +. (1.08 *. b /. 12.0)
