type t = { peak_gic_a : float }

let path_of_cable ~network (c : Cable.t) =
  (* Sample each landing-to-landing hop so that the field integration sees
     intermediate latitudes, not just the endpoints. *)
  let coords = List.map (Network.node_coord network) c.Cable.landings in
  let rec expand = function
    | a :: (b :: _ as rest) ->
        let pts = Geo.Geodesic.sample_every_km a b ~step_km:250.0 in
        (* Drop b; the next hop re-adds it. *)
        List.filteri (fun i _ -> i < List.length pts - 1) pts @ expand rest
    | [ last ] -> [ last ]
    | [] -> []
  in
  expand coords

let exposure_evals = Obs.Metrics.counter "gic.exposure_evals"

let peak_gic_hist =
  Obs.Metrics.histogram "gic.peak_gic_a"
    ~buckets:[| 1.0; 3.0; 10.0; 30.0; 100.0; 300.0; 1000.0 |]

let of_cable ~storm ~network (c : Cable.t) =
  Obs.Metrics.incr exposure_evals;
  let path = path_of_cable ~network c in
  let grounds = Grounding.chainages ~length_km:c.Cable.length_km () in
  if grounds = [] then { peak_gic_a = 0.0 }
  else
    let result = Gic.Induced.compute ~storm ~path ~ground_chainages_km:grounds () in
    Obs.Metrics.observe peak_gic_hist result.Gic.Induced.peak_gic_a;
    { peak_gic_a = result.Gic.Induced.peak_gic_a }

let failure_probability ?(scale_a = 30.0) t =
  if scale_a <= 0.0 then invalid_arg "Exposure.failure_probability: scale <= 0";
  1.0 -. exp (-.t.peak_gic_a /. scale_a)

(* Exposures depend only on (network, storm), and a damage-scale
   study compiles one storm at several [scale_a]s, each compile asking for
   the same array.  The cache is keyed by network identity (nothing writes
   into a network after [Network.create]; an equal network built
   separately just misses) and by the storm's Dst, all a storm holds.  Plans are
   compiled on server worker domains too, so a mutex guards the list; it
   is not held while computing, and two domains missing on one key both
   compute the same values and the second insert is dropped.  The newest
   [cache_capacity] entries are kept.  Callers get a copy, so nothing they
   write can reach the cache. *)
type key = { net : Network.t; dst_nt : float }

let same_key a b = a.net == b.net && Float.equal a.dst_nt b.dst_nt

let cache_capacity = 8
let cache_mu = Mutex.create ()
let cache : (key * t array) list ref = ref [] (* newest first *)

let cached key = List.find_map (fun (k, v) -> if same_key k key then Some v else None) !cache

let network_exposures ~storm network =
  let key = { net = network; dst_nt = storm.Gic.Disturbance.dst_nt } in
  let exposures =
    match Mutex.protect cache_mu (fun () -> cached key) with
    | Some v -> v
    | None ->
        let v =
          Obs.Span.with_ ~name:"gic.network_exposures" @@ fun () ->
          Array.init (Network.nb_cables network) (fun i ->
              of_cable ~storm ~network (Network.cable network i))
        in
        Mutex.protect cache_mu (fun () ->
            if cached key = None then
              cache := (key, v) :: List.filteri (fun i _ -> i < cache_capacity - 1) !cache);
        v
  in
  Array.copy exposures
