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

let cdf l =
  (* Sort once, answer every query with a binary search: sweeping q
     thresholds over n samples is O(n log n + q log n), where the old
     per-query [List.filter] re-walk was O(qn). *)
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  fun x ->
    if n = 0 then 0.0
    else begin
      (* Upper bound: number of elements <= x. *)
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) <= x then lo := mid + 1 else hi := mid
      done;
      float_of_int !lo /. float_of_int n
    end

let cdf_at l x = cdf l x

let histogram l ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Stats.histogram: bins <= 0";
  if hi <= lo then invalid_arg "Stats.histogram: hi <= lo";
  let counts = Array.make bins 0 in
  List.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. (hi -. lo) *. float_of_int bins) in
      let i = Int.max 0 (Int.min (bins - 1) i) in
      counts.(i) <- counts.(i) + 1)
    l;
  counts
