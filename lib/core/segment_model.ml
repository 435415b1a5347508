type comparison = {
  cable_level_nodes_pct : float;
  segment_level_nodes_pct : float;
  cable_level_cables_pct : float;
  segment_level_segments_pct : float;
}

(* Hop lengths of a cable, apportioning the stated length by great-circle
   share. *)
let hop_lengths network (cable : Infra.Cable.t) =
  let landings =
    List.map (fun l -> (l, Infra.Network.node_coord network l)) cable.Infra.Cable.landings
  in
  Infra.Cable.segment_lengths landings ~length_km:cable.Infra.Cable.length_km

let trial_segments rng ~plan =
  let network = Plan.network plan in
  let spacing_km = Plan.spacing_km plan in
  let hops = ref [] in
  for c = 0 to Infra.Network.nb_cables network - 1 do
    let cable = Infra.Network.cable network c in
    let p = Plan.per_repeater_prob plan c in
    List.iter
      (fun len ->
        let n = Infra.Repeater.count_for_length ~spacing_km ~length_km:len in
        let death = 1.0 -. ((1.0 -. p) ** float_of_int n) in
        hops := Rng.bernoulli rng ~p:death :: !hops)
      (hop_lengths network cable)
  done;
  Array.of_list (List.rev !hops)

let nodes_unreachable_pct_segments network dead_hops =
  let n = Infra.Network.nb_nodes network in
  let has_hop = Array.make n false and has_live = Array.make n false in
  let hop_idx = ref 0 in
  for c = 0 to Infra.Network.nb_cables network - 1 do
    let cable = Infra.Network.cable network c in
    let rec walk = function
      | a :: (b :: _ as rest) ->
          let dead = dead_hops.(!hop_idx) in
          incr hop_idx;
          has_hop.(a) <- true;
          has_hop.(b) <- true;
          if not dead then begin
            has_live.(a) <- true;
            has_live.(b) <- true
          end;
          walk rest
      | [ _ ] | [] -> ()
    in
    walk cable.Infra.Cable.landings
  done;
  let total = ref 0 and unreachable = ref 0 in
  for i = 0 to n - 1 do
    if has_hop.(i) then begin
      incr total;
      if not has_live.(i) then incr unreachable
    end
  done;
  if !total = 0 then 0.0 else 100.0 *. float_of_int !unreachable /. float_of_int !total

(* A local loop, not Plan.run_trials_par: the segment comparison
   consumes TWO master splits per trial (one for the cable-level trial,
   one for the segment-level re-roll), which the driver's
   one-split-per-trial contract can't express without changing the
   historical draw sequence. *)
let compare_models ?(trials = 10) ?(seed = 83) ?(spacing_km = 150.0) ~network ~model () =
  let plan = Plan.compile ~spacing_km ~network ~model () in
  let master = Rng.create seed in
  let cn = ref 0.0 and sn = ref 0.0 and cc = ref 0.0 and ss = ref 0.0 in
  for _ = 1 to trials do
    let dead = Plan.sample plan (Rng.split master) in
    cn := !cn +. Plan.unreachable_attached_pct plan dead;
    cc := !cc +. Montecarlo.cables_failed_pct network dead;
    let rng2 = Rng.split master in
    let hops = trial_segments rng2 ~plan in
    sn := !sn +. nodes_unreachable_pct_segments network hops;
    let failed = Array.fold_left (fun a d -> if d then a + 1 else a) 0 hops in
    ss := !ss +. (100.0 *. float_of_int failed /. float_of_int (Int.max 1 (Array.length hops)))
  done;
  let t = float_of_int trials in
  {
    cable_level_nodes_pct = !cn /. t;
    segment_level_nodes_pct = !sn /. t;
    cable_level_cables_pct = !cc /. t;
    segment_level_segments_pct = !ss /. t;
  }
