type profile = {
  dst_min : float;
  onset_h : float;
  main_phase_h : float;
  recovery_tau_h : float;
}

let default ~dst_min =
  if dst_min > 0.0 then invalid_arg "Time_series.default: dst_min must be <= 0";
  let depth = Float.abs dst_min in
  {
    dst_min;
    onset_h = 1.0;
    (* Deep storms develop faster (Carrington's main phase was hours). *)
    main_phase_h = Float.max 3.0 (9.0 -. (depth /. 300.0));
    recovery_tau_h = Float.min 40.0 (15.0 +. (depth /. 60.0));
  }

let peak_time_h p = p.onset_h +. p.main_phase_h

let dst_at p ~t_h =
  if t_h <= p.onset_h then 0.0
  else if t_h <= peak_time_h p then
    p.dst_min *. ((t_h -. p.onset_h) /. p.main_phase_h)
  else p.dst_min *. exp (-.(t_h -. peak_time_h p) /. p.recovery_tau_h)

let duration_below p ~dst_threshold =
  if dst_threshold >= 0.0 || p.dst_min > dst_threshold then 0.0
  else begin
    (* Crossing during the linear drop... *)
    let frac = dst_threshold /. p.dst_min in
    let t_enter = p.onset_h +. (frac *. p.main_phase_h) in
    (* ... and during the exponential recovery. *)
    let t_exit = peak_time_h p +. (p.recovery_tau_h *. log (p.dst_min /. dst_threshold)) in
    Float.max 0.0 (t_exit -. t_enter)
  end
