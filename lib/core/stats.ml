let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* Population (÷n) estimator, deliberately: the published tables were
   produced with it, so "fixing" this to the sample (÷(n−1)) estimator
   would shift every mean±sd column in EXPERIMENTS.md.  See stats.mli. *)
let stddev l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean l in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 l
        /. float_of_int (List.length l)
      in
      sqrt var

let mean_stddev l = (mean l, stddev l)

let percentile l ~p =
  if l = [] then invalid_arg "Stats.percentile: empty list";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]";
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let median l = percentile l ~p:50.0

let cdf_points l =
  match l with
  | [] -> []
  | _ ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      Array.to_list (Array.mapi (fun i v -> (v, float_of_int (i + 1) /. float_of_int n)) a)
