(* Plan/legacy equivalence suite plus the regression tests that rode
   along with the Plan refactor.

   The golden values below were captured from the pre-Plan per-trial
   [Failure_model.compile] loops (same seeds, same draw order), so any
   drift in the compiled-plan sampling path — an extra RNG draw, a
   reordered summation, a changed FP expression — fails these tests. *)

open Stormsim

let network = lazy (Datasets.Cache.submarine ())

(* Polynomial hash over the dead flags: order-sensitive, so it pins the
   exact per-cable outcome, not just the count. *)
let hash_dead dead =
  Array.fold_left
    (fun acc d -> Int64.add (Int64.mul acc 1000003L) (if d then 1L else 0L))
    0L dead

let dead_count dead = Array.fold_left (fun a d -> if d then a + 1 else a) 0 dead

let check_f name expected actual = Alcotest.(check (float 1e-9)) name expected actual

type golden = {
  gname : string;
  model : Failure_model.t;
  (* one trial: master = Rng.create 1234, rng = split master, spacing 150 *)
  g_dead : int;
  g_hash : int64;
  g_cables : float;
  g_nodes : float;
  (* Montecarlo.run ~trials:7 ~seed:99, spacing 150 *)
  g_cm : float;
  g_cs : float;
  g_nm : float;
  g_ns : float;
  g_expected : float;
}

let goldens =
  [
    { gname = "uniform-0.01"; model = Failure_model.uniform 0.01;
      g_dead = 77; g_hash = 6565577062320977507L;
      g_cables = 16.382978723404257; g_nodes = 10.797743755036262;
      g_cm = 14.072948328267477; g_cs = 1.6653650494592973;
      g_nm = 7.724185564636814; g_ns = 1.590414738268267;
      g_expected = 14.199107075296238 };
    { gname = "s1"; model = Failure_model.s1;
      g_dead = 149; g_hash = -8462356478488360431L;
      g_cables = 31.702127659574469; g_nodes = 27.880741337630944;
      g_cm = 28.267477203647417; g_cs = 0.92692709312929467;
      g_nm = 22.60849545297571; g_ns = 0.9571827561177576;
      g_expected = 29.357093361245589 };
    { gname = "s2"; model = Failure_model.s2;
      g_dead = 49; g_hash = -6017019299559190757L;
      g_cables = 10.425531914893616; g_nodes = 7.3327961321514907;
      g_cm = 9.2401215805471111; g_cs = 0.95732618529018976;
      g_nm = 5.5830551398641646; g_ns = 1.1746196402738898;
      g_expected = 9.4243968085214931 };
    { gname = "s1-geomag"; model = Failure_model.s1_geomag;
      g_dead = 160; g_hash = -5830886797912768062L;
      g_cables = 34.042553191489361; g_nodes = 28.847703464947624;
      g_cm = 31.09422492401216; g_cs = 1.2324094184020238;
      g_nm = 23.644526303672155; g_ns = 1.6366518629316618;
      g_expected = 32.155066669608608 };
    (* The smart constructor for geomag tiers is not exported; build the
       variant directly with the paper's 40/60 thresholds. *)
    { gname = "geomag-tiered-custom";
      model =
        Failure_model.Geomag_tiered
          { high = 0.5; mid = 0.05; low = 0.005;
            mid_threshold = 40.0; high_threshold = 60.0 };
      g_dead = 122; g_hash = 3832297744559751336L;
      g_cables = 25.957446808510639; g_nodes = 19.661563255439162;
      g_cm = 24.498480243161094; g_cs = 1.0754897272312538;
      g_nm = 16.749165419592494; g_ns = 1.3893137415570442;
      g_expected = 24.792552546225586 };
    { gname = "carrington-physical"; model = Result.get_ok (Failure_model.of_string "physical");
      g_dead = 212; g_hash = -111982140042745036L;
      g_cables = 45.106382978723403; g_nodes = 41.176470588235297;
      g_cm = 45.471124620060792; g_cs = 2.027152826812531;
      g_nm = 40.957752964199372; g_ns = 2.5777432949977492;
      g_expected = 45.777059970156522 };
  ]

(* --- golden single trial: exact dead array, derived percentages --- *)

let test_golden_trial g () =
  let network = Lazy.force network in
  let plan = Plan.compile ~network ~model:g.model () in
  let master = Rng.create 1234 in
  let rng = Rng.split master in
  let dead = Plan.sample plan rng in
  let flags = Deadset.to_bool_array dead in
  Alcotest.(check int) "dead count" g.g_dead (dead_count flags);
  Alcotest.(check int64) "dead hash" g.g_hash (hash_dead flags);
  check_f "cables pct" g.g_cables (Montecarlo.cables_failed_pct network dead);
  check_f "nodes pct" g.g_nodes (Montecarlo.nodes_unreachable_pct network dead)

(* --- golden series: Montecarlo.run (compile+run_plan) vs history --- *)

let test_golden_series g () =
  let network = Lazy.force network in
  let s = Montecarlo.run ~trials:7 ~seed:99 ~network ~spacing_km:150.0 ~model:g.model () in
  check_f "cables mean" g.g_cm s.Montecarlo.cables_mean;
  check_f "cables std" g.g_cs s.Montecarlo.cables_std;
  check_f "nodes mean" g.g_nm s.Montecarlo.nodes_mean;
  check_f "nodes std" g.g_ns s.Montecarlo.nodes_std;
  (* run_plan on a pre-compiled plan is the same computation. *)
  let plan = Plan.compile ~network ~model:g.model () in
  let s' = Montecarlo.run_plan ~trials:7 ~seed:99 plan in
  Alcotest.(check bool) "run = run_plan" true (s = s')

(* --- closed-form expectation: plan vs wrapper vs golden, to 1e-12 --- *)

let test_golden_expected g () =
  let network = Lazy.force network in
  let plan = Plan.compile ~network ~model:g.model () in
  let e = Plan.expected_cables_failed_pct plan in
  Alcotest.(check (float 1e-12)) "expected pct" g.g_expected e;
  Alcotest.(check (float 1e-12)) "wrapper agrees" e
    (Montecarlo.expected_cables_failed_pct ~network ~spacing_km:150.0 ~model:g.model)

(* --- sample vs the reference recompute path: draw-for-draw equal --- *)

(* [sample_recompute_into] draws every cable, in cable order, through
   the counted [Rng.bernoulli]; [sample_into] draws only the cables that
   can die, each at its own stream position.  They must agree on every
   network, including the ones with many death-0 cables (ITU: ~3 in 4),
   and leave their generators in the same state. *)
let oracle_networks =
  [ ("submarine", network);
    ("intertubes", lazy (Datasets.Cache.intertubes ()));
    ("itu", lazy (Datasets.Cache.itu ())) ]

let oracle_models =
  [ ("0.005", Failure_model.uniform 0.005); ("0.05", Failure_model.uniform 0.05);
    ("s1", Failure_model.s1); ("s2", Failure_model.s2) ]

let test_sample_matches_recompute () =
  List.iter
    (fun (net_name, network) ->
      let network = Lazy.force network in
      List.iter
        (fun (model_name, model) ->
          let plan = Plan.compile ~network ~model () in
          let n = Plan.nb_cables plan in
          let rng_a = Rng.create 5 and rng_b = Rng.create 5 in
          let a = Deadset.create n and b = Deadset.create n in
          for trial = 1 to 5 do
            Plan.sample_into plan rng_a a;
            Plan.sample_recompute_into plan rng_b b;
            Alcotest.(check (array bool))
              (Printf.sprintf "%s %s trial %d identical" net_name model_name trial)
              (Deadset.to_bool_array b) (Deadset.to_bool_array a)
          done;
          Alcotest.(check int64)
            (Printf.sprintf "%s %s generators in step" net_name model_name)
            (Rng.Raw.next_int64 rng_b) (Rng.Raw.next_int64 rng_a))
        oracle_models)
    oracle_networks

let test_compile_validates () =
  let network = Lazy.force network in
  Alcotest.check_raises "spacing <= 0"
    (Invalid_argument "Plan.compile: spacing_km <= 0")
    (fun () -> ignore (Plan.compile ~spacing_km:0.0 ~network ~model:Failure_model.s1 ()));
  let plan = Plan.compile ~network ~model:Failure_model.s1 () in
  Alcotest.check_raises "trials <= 0"
    (Invalid_argument "Plan.run_trials_par: trials <= 0")
    (fun () ->
      Plan.run_trials_par plan ~trials:0 ~seed:1 ~init:() ~map:(fun ~rng:_ ~dead:_ -> ())
        ~merge:(fun () () -> ()))

(* --- Recovery.storm_recovery returns the median trial's curve --- *)

let test_recovery_median_series () =
  let network = Lazy.force network in
  let model = Failure_model.s2 in
  (* storm_recovery draws its trials at seed 53. *)
  let trials = 5 and seed = 53 in
  let combined, _ = Recovery.storm_recovery ~trials ~network ~model () in
  (* Replay the same trials and pick the median-by-days_to_90_pct curve
     ourselves (lower median, ties by trial order). *)
  let p = Plan.compile ~network ~model () in
  let tls =
    List.rev
      (Plan.run_trials_par ~jobs:1 p ~trials ~seed ~init:[]
         ~map:(fun ~rng:_ ~dead ->
           Recovery.plan ~network ~dead:(Deadset.to_bool_array dead) ())
         ~merge:(fun acc tl -> tl :: acc))
  in
  let sorted =
    List.sort compare
      (List.mapi (fun i t -> (t.Recovery.days_to_90_pct, i)) tls)
  in
  let _, median_idx = List.nth sorted ((trials - 1) / 2) in
  let median = List.nth tls median_idx in
  Alcotest.(check bool) "series is the median trial's" true
    (combined.Recovery.series = median.Recovery.series);
  (* The scalar summary is still the mean over trials, not the median's. *)
  check_f "days_to_90 is the mean"
    (Stats.mean (List.map (fun t -> t.Recovery.days_to_90_pct) tls))
    combined.Recovery.days_to_90_pct

(* --- reachability from dead cables vs the allocating network oracle --- *)

let node id name country ~lat ~lon =
  { Infra.Network.id; name; country; pos = Geo.Coord.make ~lat ~lon }

let cable id name a pa b pb =
  Infra.Cable.make ~id ~name ~kind:Infra.Cable.Submarine ~landings:[ (a, pa); (b, pb) ] ()

(* Small networks in which every kind of cable and node turns up.  Nodes
   [2k] and [2k+1] sit 0.01 degrees of longitude apart, so a cable
   between them needs no repeater (death 0); every other cable spans at
   least 20 degrees and has repeaters.  Each pair's latitude comes from
   one of the S1/S2 tiers, so a tiered model with [high = 1.0] kills the
   polar cables surely.  Endpoints are drawn freely over a few nodes:
   parallel cables between one pair and nodes without any cable both
   occur. *)
type small = { lats : float array; ends : (int * int) list; model : Failure_model.t; seed : int }

let small_models =
  [ Failure_model.uniform 0.0; Failure_model.uniform 1.0; Failure_model.uniform 0.3;
    Failure_model.tiered ~high:1.0 ~mid:0.5 ~low:0.0; Failure_model.s1; Failure_model.s2 ]

let small_network sp =
  let lat i = sp.lats.(i / 2) in
  let lon i = (20.0 *. float_of_int (i / 2)) +. (0.01 *. float_of_int (i mod 2)) in
  let coord i = Geo.Coord.make ~lat:(lat i) ~lon:(lon i) in
  let nodes =
    List.init (2 * Array.length sp.lats) (fun i ->
        node i (Printf.sprintf "n%d" i) "XX" ~lat:(lat i) ~lon:(lon i))
  in
  let cables =
    List.mapi (fun c (a, b) -> cable c (Printf.sprintf "c%d" c) a (coord a) b (coord b)) sp.ends
  in
  Infra.Network.create ~name:"small" ~nodes ~cables

let small_arb =
  let open QCheck.Gen in
  let gen =
    let* pairs = int_range 1 4 in
    let* lats = array_size (return pairs) (oneofl [ 10.0; 50.0; 70.0; -65.0 ]) in
    let n = 2 * pairs in
    let* ends =
      list_size (int_range 0 10)
        (let* a = int_bound (n - 1) in
         let* b = int_bound (n - 2) in
         return (a, if b >= a then b + 1 else b))
    in
    let* model = oneofl small_models in
    let* seed = int_bound 10_000 in
    return { lats; ends; model; seed }
  in
  let print sp =
    Printf.sprintf "lats=[%s] ends=[%s] model=%s seed=%d"
      (String.concat ";" (Array.to_list (Array.map string_of_float sp.lats)))
      (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) sp.ends))
      (Failure_model.to_string sp.model) sp.seed
  in
  QCheck.make ~print gen

let prop_unreachable_matches_oracle =
  QCheck.Test.make ~name:"unreachable_attached_pct = nodes_unreachable_pct" ~count:500
    small_arb (fun sp ->
      let network = small_network sp in
      let plan = Plan.compile ~network ~model:sp.model () in
      let m = Plan.nb_cables plan in
      let same dead =
        Int64.equal
          (Int64.bits_of_float (Plan.unreachable_attached_pct plan dead))
          (Int64.bits_of_float (Montecarlo.nodes_unreachable_pct network dead))
      in
      let sampled =
        Plan.run_trials_par ~jobs:1 plan ~trials:5 ~seed:sp.seed ~init:true
          ~map:(fun ~rng:_ ~dead -> same dead)
          ~merge:( && )
      in
      let rng = Rng.create sp.seed in
      let arbitrary =
        [ Deadset.of_bool_array (Array.make m true);
          Deadset.create m;
          Deadset.of_bool_array (Array.init m (fun _ -> Rng.bool rng)) ]
      in
      sampled && List.for_all same arbitrary)

(* --- allocation per call: independent of the network's size --- *)

let minor_words_per_call f =
  let k = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to k do
    f ()
  done;
  Float.round ((Gc.minor_words () -. w0) /. float_of_int k)

let test_trial_allocation () =
  let words network model =
    let plan = Plan.compile ~network ~model () in
    let dead = Deadset.create (Plan.nb_cables plan) in
    let rng = Rng.create 11 in
    ( minor_words_per_call (fun () -> Plan.sample_into plan rng dead),
      minor_words_per_call (fun () -> ignore (Plan.unreachable_attached_pct plan dead)) )
  in
  let submarine = Lazy.force network in
  let u = Failure_model.uniform 0.05 in
  let sub_sample, sub_unreach = words submarine u in
  let itu_sample, itu_unreach = words (Datasets.Cache.itu ~scale:1.0 ()) u in
  Alcotest.(check (float 0.0)) "sample_into: submarine = full ITU" sub_sample itu_sample;
  Alcotest.(check (float 0.0)) "unreachable: submarine = full ITU" sub_unreach itu_unreach;
  (* The bounds are what both calls allocated before the kernel was
     rewritten, measured on submarine S1. *)
  let s1_sample, s1_unreach = words submarine Failure_model.s1 in
  Alcotest.(check bool) (Printf.sprintf "sample_into %g <= 7 words" s1_sample) true
    (s1_sample <= 7.0);
  Alcotest.(check bool) (Printf.sprintf "unreachable %g <= 2 words" s1_unreach) true
    (s1_unreach <= 2.0)

(* --- Distribution.mass_above derives bin widths from the grid --- *)

let test_mass_above_nonuniform_grid () =
  let s : Distribution.pdf_series =
    { label = "synthetic"; points = [ (0.0, 1.0); (10.0, 2.0); (30.0, 0.5); (50.0, 0.25) ] }
  in
  (* Widths: 10 (edge), (30-0)/2 = 15, (50-10)/2 = 20, 20 (edge).
     Above 20: 0.5*20 + 0.25*20 = 15. *)
  check_f "non-uniform widths" 15.0 (Distribution.mass_above s ~threshold:20.0);
  (* On a uniform 2-degree grid the estimate reduces to density * 2. *)
  let uniform : Distribution.pdf_series =
    { label = "uniform"; points = [ (37.0, 0.1); (39.0, 0.2); (41.0, 0.4); (43.0, 0.8) ] }
  in
  check_f "uniform 2-degree grid" ((0.4 +. 0.8) *. 2.0)
    (Distribution.mass_above uniform ~threshold:40.0);
  let empty : Distribution.pdf_series = { label = "empty"; points = [] } in
  check_f "empty series" 0.0 (Distribution.mass_above empty ~threshold:0.0)

(* --- Datasets.Cache memoizes per parameter tuple --- *)

let test_cache_memoizes () =
  Datasets.Cache.clear ();
  Alcotest.(check int) "cleared" 0 (Datasets.Cache.build_count ());
  let a = Datasets.Cache.submarine () in
  Alcotest.(check int) "first build" 1 (Datasets.Cache.build_count ());
  let b = Datasets.Cache.submarine () in
  Alcotest.(check int) "hit, no rebuild" 1 (Datasets.Cache.build_count ());
  Alcotest.(check bool) "same physical value" true (a == b);
  let c = Datasets.Cache.submarine ~seed:43 () in
  Alcotest.(check int) "different seed misses" 2 (Datasets.Cache.build_count ());
  Alcotest.(check bool) "different value" true (c != a);
  ignore (Datasets.Cache.intertubes ());
  Alcotest.(check int) "other dataset misses" 3 (Datasets.Cache.build_count ());
  ignore (Datasets.Cache.intertubes ());
  Alcotest.(check int) "other dataset hits" 3 (Datasets.Cache.build_count ())

(* [f] on this domain and on a second one, started together. *)
let on_two_domains f =
  let ready = Atomic.make 0 in
  let go () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    f ()
  in
  let d = Domain.spawn go in
  let here = go () in
  (here, Domain.join d)

let test_cache_single_flight () =
  Datasets.Cache.clear ();
  let a, b = on_two_domains (fun () -> Datasets.Cache.submarine ~seed:44 ()) in
  Alcotest.(check int) "one build for one key" 1 (Datasets.Cache.build_count ());
  Alcotest.(check bool) "one physical value" true (a == b)

(* A build that raises caches nothing and leaves no waiter behind: every
   call, on either domain, builds again and raises again. *)
let test_cache_failed_build () =
  let raises () =
    match Datasets.Cache.itu ~scale:0.0 () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "first call raises" true (raises ());
  Alcotest.(check bool) "second call raises" true (raises ());
  Alcotest.(check (pair bool bool)) "both domains raise" (true, true) (on_two_domains raises)

let () =
  let per_model mk =
    List.map (fun g -> Alcotest.test_case g.gname `Quick (mk g)) goldens
  in
  Alcotest.run "plan"
    [
      ("golden trial", per_model test_golden_trial);
      ("golden series", per_model test_golden_series);
      ("golden expected", per_model test_golden_expected);
      ( "engine",
        [ Alcotest.test_case "sample = recompute" `Quick test_sample_matches_recompute;
          Alcotest.test_case "validation" `Quick test_compile_validates;
          QCheck_alcotest.to_alcotest prop_unreachable_matches_oracle;
          Alcotest.test_case "allocation per call" `Quick test_trial_allocation ] );
      ( "satellites",
        [ Alcotest.test_case "recovery median series" `Quick test_recovery_median_series;
          Alcotest.test_case "mass_above grids" `Quick test_mass_above_nonuniform_grid;
          Alcotest.test_case "dataset cache" `Quick test_cache_memoizes;
          Alcotest.test_case "dataset cache single flight" `Quick test_cache_single_flight;
          Alcotest.test_case "dataset cache failed build" `Quick test_cache_failed_build ] );
    ]
