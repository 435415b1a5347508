type tier = T1 | T2 | Stub

type t = {
  n : int;
  tier : tier array;
  home_lat : float array;
  providers : int list array;
  customers : int list array;
  peers : int list array;
}

let generate ?(seed = 42) ?(n = 2000) () =
  if n < 20 then invalid_arg "As_topology.generate: need at least 20 ASes";
  let rng = Rng.create seed in
  let ases = Datasets.Caida.build ~seed ~ases:n () in
  let home_lat = Array.map (fun a -> Geo.Coord.lat a.Datasets.Caida.home) ases in
  let home_lon = Array.map (fun a -> Geo.Coord.lon a.Datasets.Caida.home) ases in
  (* Tier assignment: the largest router clouds are the transit core. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      Int.compare ases.(b).Datasets.Caida.router_count ases.(a).Datasets.Caida.router_count)
    order;
  let tier = Array.make n Stub in
  let n_t1 = Int.max 5 (n / 100) in
  let n_t2 = Int.max 10 (n * 14 / 100) in
  Array.iteri
    (fun rank idx ->
      if rank < n_t1 then tier.(idx) <- T1
      else if rank < n_t1 + n_t2 then tier.(idx) <- T2)
    order;
  let providers = Array.make n [] and customers = Array.make n [] and peers = Array.make n [] in
  let add_provider c p =
    if c <> p && not (List.mem p providers.(c)) then begin
      providers.(c) <- p :: providers.(c);
      customers.(p) <- c :: customers.(p)
    end
  in
  let add_peer a b =
    if a <> b && not (List.mem b peers.(a)) then begin
      peers.(a) <- b :: peers.(a);
      peers.(b) <- a :: peers.(b)
    end
  in
  let t1s = Array.of_list (List.filter (fun i -> tier.(i) = T1) (Array.to_list order)) in
  let t2s = Array.of_list (List.filter (fun i -> tier.(i) = T2) (Array.to_list order)) in
  (* Tier-1 full peer mesh. *)
  Array.iter (fun a -> Array.iter (fun b -> if a < b then add_peer a b) t1s) t1s;
  (* Geographic proximity on (lat, lon): squared degree distance. *)
  let dist2 a b =
    let dlat = home_lat.(a) -. home_lat.(b) in
    let dlon = Geo.Angle.angular_diff home_lon.(a) home_lon.(b) in
    (dlat *. dlat) +. (dlon *. dlon)
  in
  let nearest_of pool ~to_:i ~k ~skip =
    let scored =
      Array.to_list pool
      |> List.filter (fun j -> j <> i && not (List.mem j skip))
      |> List.map (fun j -> (dist2 i j, j))
      |> List.sort (fun (d, j) (d', j') ->
             (* [dist2] is never NaN, so this is the polymorphic order. *)
             let c = Float.compare d d' in
             if c <> 0 then c else Int.compare j j')
    in
    List.filteri (fun idx _ -> idx < k) scored |> List.map snd
  in
  (* Tier-2: buy transit from 2-3 tier-1s (nearest-biased), peer with a few
     nearby tier-2s. *)
  Array.iter
    (fun i ->
      let k = 2 + Rng.int rng 2 in
      List.iter (add_provider i) (nearest_of t1s ~to_:i ~k ~skip:[]);
      let kp = 1 + Rng.int rng 3 in
      List.iter (add_peer i) (nearest_of t2s ~to_:i ~k:kp ~skip:[]))
    t2s;
  (* Stubs: 1-3 providers among nearby transit ASes (tier-2 preferred). *)
  let transit = Array.append t2s t1s in
  Array.iteri
    (fun i t ->
      if t = Stub then begin
        (* Most stubs are multi-homed (2-3 providers). *)
        let k = 2 + Rng.int rng 2 in
        let near = nearest_of transit ~to_:i ~k:(k + 3) ~skip:[] in
        let chosen = List.filteri (fun idx _ -> idx < k) near in
        List.iter (add_provider i) chosen
      end)
    tier;
  { n; tier; home_lat; providers; customers; peers }

let validate t =
  let check_pair_consistency () =
    let ok = ref true in
    Array.iteri
      (fun c ps ->
        List.iter (fun p -> if not (List.mem c t.customers.(p)) then ok := false) ps)
      t.providers;
    !ok
  in
  let check_peers_symmetric () =
    let ok = ref true in
    Array.iteri
      (fun a ps -> List.iter (fun b -> if not (List.mem a t.peers.(b)) then ok := false) ps)
      t.peers;
    !ok
  in
  let check_no_self () =
    let ok = ref true in
    Array.iteri (fun i ps -> if List.mem i ps then ok := false) t.providers;
    Array.iteri (fun i ps -> if List.mem i ps then ok := false) t.peers;
    !ok
  in
  let check_stub_providers () =
    let ok = ref true in
    Array.iteri (fun i tr -> if tr = Stub && t.providers.(i) = [] then ok := false) t.tier;
    !ok
  in
  if not (check_pair_consistency ()) then Error "provider/customer mismatch"
  else if not (check_peers_symmetric ()) then Error "asymmetric peers"
  else if not (check_no_self ()) then Error "self link"
  else if not (check_stub_providers ()) then Error "orphan stub"
  else Ok ()
