type asys = {
  asn : int;
  home : Geo.Coord.t;
  router_count : int;
  router_lats : float array;
  spread_deg : float;
}

let target_ases = 61448

(* Internet infrastructure is over-represented at high latitudes relative
   to population (the paper's central skew): AS home cities are drawn with
   a continent weight favouring North America and Europe. *)
let continent_weight =
  let open Geo.Region in
  function
  | Europe -> 4.1
  | North_america -> 3.2
  | Asia -> 0.65
  | Oceania -> 1.6
  | South_america -> 0.9
  | Africa -> 0.45
  | Antarctica -> 0.0

(* Lognormal spread calibrated on the paper's quantiles:
   median 1.723 deg -> mu = ln 1.723; p90 18.263 -> sigma =
   (ln 18.263 - ln 1.723) / 1.2816. *)
let spread_mu = log 1.723
let spread_sigma = (log 18.263 -. spread_mu) /. 1.2816

let sample_router_count rng =
  (* Zipf-like: most ASes are tiny, a few are huge.  Scaled so that the
     synthetic universe holds ~0.75 M routers for 61k ASes (the real 46 M
     scaled by ~1/60). *)
  let x = Rng.pareto rng ~xmin:1.0 ~alpha:1.45 in
  Int.max 1 (Int.min 20000 (int_of_float x))

let build ?(seed = 42) ?(ases = target_ases) () =
  if ases <= 0 then invalid_arg "Caida.build: non-positive AS count";
  let rng = Rng.create seed in
  let pick_home =
    Rng.weighted_sampler
      (Array.map
         (fun c ->
           (c, Float.max 0.05 c.Cities.population_m *. continent_weight c.Cities.continent))
         Cities.all)
  in
  Array.init ases (fun i ->
      let asn = i + 1 in
      let home_city = pick_home rng in
      let home = home_city.Cities.pos in
      let spread_target = Rng.lognormal rng ~mu:spread_mu ~sigma:spread_sigma in
      let router_count = sample_router_count rng in
      (* Sample at most 64 router latitudes per AS; reach/spread statistics
         stabilize long before that.  The AS's geographic footprint is the
         latitude band [home ± spread/2]; the two extreme sites are always
         materialized so the realized spread matches the calibrated
         lognormal draw. *)
      let sample_n = Int.max 2 (Int.min 64 router_count) in
      let clamp l = Float.max (-89.0) (Float.min 89.0 l) in
      let half = spread_target /. 2.0 in
      let router_lats =
        Array.init sample_n (fun j ->
            if j = 0 then clamp (Geo.Coord.lat home -. half)
            else if j = 1 then clamp (Geo.Coord.lat home +. half)
            else clamp (Geo.Coord.lat home +. Rng.uniform rng (-.half) half))
      in
      let lo = Array.fold_left Float.min router_lats.(0) router_lats in
      let hi = Array.fold_left Float.max router_lats.(0) router_lats in
      { asn; home; router_count; router_lats; spread_deg = hi -. lo })

let router_latitudes ases =
  let total = Array.fold_left (fun acc a -> acc + Array.length a.router_lats) 0 ases in
  let out = Array.make total 0.0 in
  let k = ref 0 in
  Array.iter
    (fun a ->
      Array.iter
        (fun l ->
          out.(!k) <- l;
          incr k)
        a.router_lats)
    ases;
  out

let reach_above ases ~threshold =
  if Array.length ases = 0 then 0.0
  else
    let n =
      Array.fold_left
        (fun acc a ->
          if Array.exists (fun l -> Float.abs l > threshold) a.router_lats then acc + 1
          else acc)
        0 ases
    in
    float_of_int n /. float_of_int (Array.length ases)

let spread_cdf ases =
  let spreads = Array.map (fun a -> a.spread_deg) ases in
  Array.sort Float.compare spreads;
  let n = Array.length spreads in
  List.init n (fun i -> (spreads.(i), float_of_int (i + 1) /. float_of_int n))
