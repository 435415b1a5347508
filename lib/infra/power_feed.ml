type budget = {
  line_voltage_v : float;
  repeater_voltage_v : float;
  margin_v : float;
  total_v : float;
  repeaters : int;
}

let feed_current_a = 1.1
let line_resistance_ohm_km = 0.8
let repeater_drop_v = 18.0

let budget_for ~length_km () =
  if length_km <= 0.0 then invalid_arg "Power_feed.budget_for: length <= 0";
  let repeaters = Repeater.count_for_length ~spacing_km:70.0 ~length_km in
  let line_voltage_v = feed_current_a *. line_resistance_ohm_km *. length_km in
  let repeater_voltage_v = float_of_int repeaters *. repeater_drop_v in
  (* Earth-potential difference between the two shores plus spare-repeater
     allowance: a few percent of the working budget. *)
  let margin_v = 0.05 *. (line_voltage_v +. repeater_voltage_v) in
  {
    line_voltage_v;
    repeater_voltage_v;
    margin_v;
    total_v = line_voltage_v +. repeater_voltage_v +. margin_v;
    repeaters;
  }

let dual_end_feasible b = b.total_v <= 2.0 *. 15000.0

let max_span_km () =
  (* Bisection over length: the budget is monotone in length. *)
  let feasible l = dual_end_feasible (budget_for ~length_km:l ()) in
  let rec bisect lo hi n =
    if n = 0 then lo
    else
      let mid = (lo +. hi) /. 2.0 in
      if feasible mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
  in
  if not (feasible 100.0) then 0.0 else bisect 100.0 60000.0 60
