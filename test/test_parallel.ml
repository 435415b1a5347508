(* Domain-parallel trial engine suite.

   The contract under test: [Plan.run_trials_par] produces byte-identical
   results to a plain sequential fold ([seq_fold] below) for ANY job
   count — trial [i] draws the stream of the master's (i+1)-th split and
   results are merged in trial order, so parallelism never shows in the
   output.  The suite pins that identity across every failure-model
   constructor, checks Obs counter totals are exact under domains, and
   exercises the Exec pool's coverage / shutdown / exception behaviour.

   The "satellites" section holds the regression tests for the latent-bug
   sweep that rode along with the engine: the weighted pick's trailing
   zero-weight fallthrough, the dead [?seed] dropped from Recovery.plan,
   and Mitigation's greedy
   augmentation after the dead-binding cleanup. *)

open Stormsim

let network = lazy (Datasets.Cache.submarine ())

(* Polynomial hash over the dead flags: order-sensitive, so it pins the
   exact per-cable outcome of every trial, not just the count. *)
let hash_dead dead =
  Array.fold_left
    (fun acc d -> Int64.add (Int64.mul acc 1000003L) (if d then 1L else 0L))
    0L
    (Deadset.to_bool_array dead)

let models =
  [
    ("uniform-0.01", Failure_model.uniform 0.01);
    ("s1", Failure_model.s1);
    ("s2", Failure_model.s2);
    ("s1-geomag", Failure_model.s1_geomag);
    ( "geomag-tiered-custom",
      Failure_model.Geomag_tiered
        { high = 0.5; mid = 0.05; low = 0.005;
          mid_threshold = 40.0; high_threshold = 60.0 } );
    ("carrington-physical", Result.get_ok (Failure_model.of_string "physical"));
  ]

(* The oracle: the historical trial loop, one [Rng.split] of the master
   per trial and the dead set sampled before [f] runs. *)
let seq_fold plan ~trials ~seed ~init ~f =
  let master = Rng.create seed in
  let dead = Deadset.create (Plan.nb_cables plan) in
  let acc = ref init in
  for _ = 1 to trials do
    let rng = Rng.split master in
    Plan.sample_into plan rng dead;
    acc := f !acc ~rng ~dead
  done;
  !acc

(* --- run_trials_par ≡ seq_fold, per model, per job count --- *)

let test_par_identity (mname, model) () =
  let network = Lazy.force network in
  let plan = Plan.compile ~network ~model () in
  let trials = 7 and seed = 99 in
  let seq =
    List.rev
      (seq_fold plan ~trials ~seed ~init:[] ~f:(fun acc ~rng:_ ~dead ->
           hash_dead dead :: acc))
  in
  List.iter
    (fun jobs ->
      let par =
        List.rev
          (Plan.run_trials_par ~jobs plan ~trials ~seed ~init:[]
             ~map:(fun ~rng:_ ~dead -> hash_dead dead)
             ~merge:(fun acc h -> h :: acc))
      in
      Alcotest.(check (list int64))
        (Printf.sprintf "%s: jobs=%d dead arrays" mname jobs)
        seq par)
    [ 1; 2; 4 ];
  (* Inside another section's body the trial loop runs inline, as one
     [~lo:0 ~hi:trials] call at [jobs = 2]: slot 0 of the chunk results
     holds every trial, and the ordered merge must not notice. *)
  let nested = Array.make 2 [] in
  Exec.parallel_for ~jobs:2 ~n:2 ~chunk:1 (fun ~lo ~hi ->
      for k = lo to hi - 1 do
        nested.(k) <-
          List.rev
            (Plan.run_trials_par ~jobs:2 plan ~trials ~seed ~init:[]
               ~map:(fun ~rng:_ ~dead -> hash_dead dead)
               ~merge:(fun acc h -> h :: acc))
      done);
  Array.iter
    (Alcotest.(check (list int64)) (mname ^ ": jobs=2 inside a section") seq)
    nested;
  (* The full float path — per-trial percentages, mean, stddev — must
     also come out bit-equal: the ordered merge preserves accumulation
     order, so not even FP rounding may differ across job counts. *)
  let s1 = Montecarlo.run_plan ~trials ~jobs:1 ~seed plan in
  List.iter
    (fun jobs ->
      let sj = Montecarlo.run_plan ~trials ~jobs ~seed plan in
      Alcotest.(check bool)
        (Printf.sprintf "%s: series jobs=%d = jobs=1" mname jobs)
        true (sj = s1))
    [ 2; 4 ]

(* --- Obs counters are exact (not approximate) under domains --- *)

let counter_value snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> Alcotest.failf "counter %s missing from snapshot" name

let test_obs_counters_parallel () =
  let network = Lazy.force network in
  let plan = Plan.compile ~network ~model:Failure_model.s1 () in
  let totals jobs =
    Obs.Metrics.reset ();
    ignore (Montecarlo.run_plan ~trials:8 ~jobs ~seed:3 plan);
    let snap = Obs.Metrics.snapshot () in
    (counter_value snap "rng.draws", counter_value snap "plan.trials")
  in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset ();
      Obs.disable ())
    (fun () ->
      let draws1, trials1 = totals 1 in
      let draws4, trials4 = totals 4 in
      Alcotest.(check int) "plan.trials counts the trials" 8 trials1;
      Alcotest.(check int) "plan.trials identical at 4 jobs" trials1 trials4;
      Alcotest.(check bool) "rng.draws saw the sampling" true (draws1 > 0);
      Alcotest.(check int) "rng.draws identical at 4 jobs" draws1 draws4)

(* --- Exec pool: coverage, validation, shutdown --- *)

let test_parallel_for_covers () =
  List.iter
    (fun (jobs, n, chunk) ->
      let hits = Array.make (Int.max n 1) 0 in
      Exec.parallel_for ?chunk ~jobs ~n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d n=%d: every index exactly once" jobs n)
        true
        (Array.for_all (fun h -> h = if n = 0 then 0 else 1)
           (Array.sub hits 0 (Int.max n 1))))
    [ (1, 0, None); (1, 17, None); (2, 1, None); (3, 10, Some 1);
      (4, 1000, None); (4, 5, Some 100); (8, 64, Some 3) ]

let test_exec_validation () =
  let nop ~lo:_ ~hi:_ = () in
  Alcotest.check_raises "jobs <= 0"
    (Invalid_argument "Exec.parallel_for: jobs <= 0")
    (fun () -> Exec.parallel_for ~jobs:0 ~n:1 nop);
  Alcotest.check_raises "n < 0"
    (Invalid_argument "Exec.parallel_for: n < 0")
    (fun () -> Exec.parallel_for ~jobs:1 ~n:(-1) nop);
  Alcotest.check_raises "chunk <= 0"
    (Invalid_argument "Exec.parallel_for: chunk <= 0")
    (fun () -> Exec.parallel_for ~chunk:0 ~jobs:2 ~n:4 nop);
  Alcotest.check_raises "set_default_jobs <= 0"
    (Invalid_argument "Exec.set_default_jobs: jobs <= 0")
    (fun () -> Exec.set_default_jobs 0);
  let network = Lazy.force network in
  let plan = Plan.compile ~network ~model:Failure_model.s1 () in
  let run ~jobs ~trials =
    ignore
      (Plan.run_trials_par ~jobs plan ~trials ~seed:1 ~init:0
         ~map:(fun ~rng:_ ~dead:_ -> 1)
         ~merge:( + ))
  in
  Alcotest.check_raises "run_trials_par: trials <= 0"
    (Invalid_argument "Plan.run_trials_par: trials <= 0")
    (fun () -> run ~jobs:2 ~trials:0);
  Alcotest.check_raises "run_trials_par: jobs <= 0"
    (Invalid_argument "Plan.run_trials_par: jobs <= 0")
    (fun () -> run ~jobs:0 ~trials:2)

exception Boom

let test_exception_shutdown () =
  (* A pooled worker raising must reach the caller, and the pool must
     stay usable afterwards — workers survive the exception, only the
     job dies. *)
  Alcotest.check_raises "worker exception propagates" Boom (fun () ->
      Exec.parallel_for ~jobs:4 ~n:64 ~chunk:1 (fun ~lo ~hi:_ ->
          if lo >= 32 then raise Boom));
  (* Hundreds of further calls reuse the same workers without
     exhausting the runtime's live-domain limit. *)
  for _ = 1 to 100 do
    Exec.parallel_for ~jobs:4 ~n:8 (fun ~lo:_ ~hi:_ -> ())
  done;
  let network = Lazy.force network in
  let plan = Plan.compile ~network ~model:Failure_model.s2 () in
  let count =
    Plan.run_trials_par ~jobs:4 plan ~trials:16 ~seed:2 ~init:0
      ~map:(fun ~rng:_ ~dead:_ -> 1)
      ~merge:( + )
  in
  Alcotest.(check int) "engine still works after the storm" 16 count

let test_pool_reuse () =
  (* The pool is persistent: once the first multi-job call has spawned
     its workers, further calls at the same width reuse them — the
     domain count must not grow with the number of calls. *)
  Exec.parallel_for ~jobs:4 ~n:32 (fun ~lo:_ ~hi:_ -> ());
  let after_first = Exec.pool_size () in
  (* Other suites may have widened the pool already; the cap is what's
     guaranteed, reuse is what's under test. *)
  Alcotest.(check bool) "pool spawned and bounded" true
    (after_first >= 1 && after_first <= 30);
  for _ = 1 to 5 do
    Exec.parallel_for ~jobs:4 ~n:32 (fun ~lo:_ ~hi:_ -> ())
  done;
  Alcotest.(check int) "same workers across calls" after_first (Exec.pool_size ())

let test_nested_parallel_for () =
  (* A body may itself call parallel_for, even when every pooled worker
     is busy with the outer loop; every inner index is still covered
     once. *)
  let outer = 4 and inner = 16 in
  let hits = Array.init outer (fun _ -> Array.make inner 0) in
  Exec.parallel_for ~jobs:4 ~n:outer ~chunk:1 (fun ~lo ~hi ->
      for o = lo to hi - 1 do
        Exec.parallel_for ~jobs:2 ~n:inner (fun ~lo ~hi ->
            for i = lo to hi - 1 do
              hits.(o).(i) <- hits.(o).(i) + 1
            done)
      done);
  Alcotest.(check bool) "every inner index exactly once" true
    (Array.for_all (Array.for_all (fun h -> h = 1)) hits)

let test_nested_runs_inline () =
  (* A section opened from a body is one [body ~lo:0 ~hi:n] call on the
     body's domain, and spawns nothing: 23 tasks at [jobs:2], each
     opening a [jobs:2] section, used to grow the pool by several
     domains, since every worker was busy with an outer task. *)
  Exec.parallel_for ~jobs:2 ~n:2 ~chunk:1 (fun ~lo:_ ~hi:_ -> ());
  let before = Exec.pool_size () in
  let tasks = 23 and inner = 16 in
  let calls = Array.make tasks [] in
  Exec.parallel_for ~jobs:2 ~n:tasks ~chunk:1 (fun ~lo ~hi ->
      for t = lo to hi - 1 do
        let self = Domain.self () in
        Exec.parallel_for ~jobs:2 ~n:inner (fun ~lo ~hi ->
            calls.(t) <- (lo, hi, Domain.self () = self) :: calls.(t))
      done);
  Array.iteri
    (fun t c ->
      Alcotest.(check (list (triple int int bool)))
        (Printf.sprintf "task %d: one inline call on its own domain" t)
        [ (0, inner, true) ] c)
    calls;
  Alcotest.(check bool)
    (Printf.sprintf "pool stays at %d (now %d)" before (Exec.pool_size ()))
    true
    (Exec.pool_size () <= before)

let test_default_jobs_override () =
  Exec.set_default_jobs 3;
  Alcotest.(check int) "override wins" 3 (Exec.default_jobs ());
  Exec.set_default_jobs 1;
  Alcotest.(check int) "override back to sequential" 1 (Exec.default_jobs ())

(* --- satellites: the latent-bug sweep --- *)

let test_weighted_choice_trailing_zero () =
  (* The scan used to fall through to the LAST entry on FP shortfall,
     zero-weight or not; it must now stop at the last positive weight. *)
  let rng = Rng.create 11 in
  for _ = 1 to 500 do
    Alcotest.(check string) "zero-weight tail never selected" "a"
      (Rng.weighted_sampler [| ("a", 1.0); ("b", 0.0) |] rng)
  done;
  for _ = 1 to 200 do
    let pick =
      Rng.weighted_sampler
        [| ("z", 0.0); ("a", 1.0); ("m", 0.0); ("b", 1.0); ("t", 0.0) |]
        rng
    in
    Alcotest.(check bool) "only positive-weight entries" true
      (pick = "a" || pick = "b")
  done

let test_recovery_plan_deterministic () =
  (* Recovery.plan carried a [?seed] it silently ignored; now that the
     signature is honest, pin the behaviour the parameter lied about:
     the plan is a pure function of the network and the dead set. *)
  let network = Lazy.force network in
  let dead =
    Array.init (Infra.Network.nb_cables network) (fun i -> i mod 4 = 0)
  in
  let a = Recovery.plan ~network ~dead () in
  let b = Recovery.plan ~network ~dead () in
  Alcotest.(check bool) "pure function of inputs" true (a = b);
  Alcotest.(check bool) "repairs take time" true (a.Recovery.days_to_90_pct > 0.0)

let test_augmentation_greedy () =
  let network = Lazy.force network in
  let a = Mitigation.plan_augmentation ~budget:2 ~network () in
  let b = Mitigation.plan_augmentation ~budget:2 ~network () in
  Alcotest.(check bool) "deterministic" true (a = b);
  Alcotest.(check bool) "within budget" true (List.length a <= 2);
  List.iter
    (fun (g : Mitigation.augmentation) ->
      Alcotest.(check bool) "every pick gains" true (g.Mitigation.gain > 0.0))
    a;
  Alcotest.(check int) "budget 0 plans nothing" 0
    (List.length (Mitigation.plan_augmentation ~budget:0 ~network ()))

let () =
  let per_model mk =
    List.map (fun (name, _ as m) -> Alcotest.test_case name `Quick (mk m)) models
  in
  Alcotest.run "parallel"
    [
      ("par = seq identity", per_model test_par_identity);
      ( "obs under domains",
        [ Alcotest.test_case "counter totals exact" `Quick test_obs_counters_parallel ] );
      ( "exec pool",
        [ Alcotest.test_case "coverage" `Quick test_parallel_for_covers;
          Alcotest.test_case "validation" `Quick test_exec_validation;
          Alcotest.test_case "exception shutdown" `Quick test_exception_shutdown;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "nested parallel_for" `Quick test_nested_parallel_for;
          Alcotest.test_case "nested section runs inline" `Quick test_nested_runs_inline;
          Alcotest.test_case "default jobs override" `Quick test_default_jobs_override ] );
      ( "satellites",
        [ Alcotest.test_case "weighted_choice trailing zero" `Quick
            test_weighted_choice_trailing_zero;
          Alcotest.test_case "recovery plan deterministic" `Quick
            test_recovery_plan_deterministic;
          Alcotest.test_case "augmentation greedy" `Quick test_augmentation_greedy ] );
    ]
