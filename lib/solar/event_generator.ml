type event = { year : float; dst_nt : float; severity : Dst.severity }

let default_rate ~min_dst = Probability.events_per_year_exceeding ~dst:(-.min_dst)

(* Thinning algorithm for the inhomogeneous Poisson process: draw from a
   dominating homogeneous process at the peak modulated rate, accept with
   ratio rate(t)/peak. *)
let generate ?(min_dst = 100.0) ?base_rate_per_year ~rng ~start ~stop () =
  if stop < start then invalid_arg "Event_generator.generate: stop < start";
  if min_dst < 0.0 then invalid_arg "Event_generator.generate: min_dst must be positive";
  let base =
    match base_rate_per_year with Some r -> r | None -> default_rate ~min_dst
  in
  if base <= 0.0 then []
  else begin
    (* Peak modulation factor of [modulated_rate] relative to base: the
       Gleissberg maximum (2.0) times the activity ceiling (1.375). *)
    let peak = base *. 2.8 in
    let events = ref [] in
    let t = ref start in
    let continue = ref true in
    while !continue do
      let dt = Rng.exponential rng ~rate:peak in
      t := !t +. dt;
      if !t >= stop then continue := false
      else begin
        let rate = Probability.modulated_rate ~base_rate_per_year:base ~year:!t in
        if Rng.bernoulli rng ~p:(Float.min 1.0 (rate /. peak)) then begin
          (* Magnitude from the Pareto tail above min_dst with the Riley
             density exponent. *)
          let mag = Rng.pareto rng ~xmin:min_dst ~alpha:(Probability.riley_exponent -. 1.0) in
          let dst = -.Float.min 3000.0 mag in
          events := { year = !t; dst_nt = dst; severity = Dst.severity_of_dst dst } :: !events
        end
      end
    done;
    List.rev !events
  end

let worst events =
  List.fold_left
    (fun acc e ->
      match acc with
      | None -> Some e
      | Some best -> if e.dst_nt < best.dst_nt then Some e else acc)
    None events

let carrington_in_window ?(trials = 400) ~seed ~start ~stop () =
  let master = Rng.create seed in
  let hits = ref 0 in
  for _ = 1 to trials do
    let rng = Rng.split master in
    let events = generate ~rng ~start ~stop () in
    if List.exists (fun e -> Float.abs e.dst_nt >= 850.0) events then incr hits
  done;
  float_of_int !hits /. float_of_int trials
