(* The four workloads, the request bytes each one sends, and the metric
   catalogue every run reports.  Everything a run sends is a pure
   function of [--seed]; the program only ever sees these bytes. *)

type t = Serve_hit | Serve_miss | Serve_sweep | Cli_batch

let all = [ Serve_hit; Serve_miss; Serve_sweep; Cli_batch ]

let name = function
  | Serve_hit -> "serve-hit"
  | Serve_miss -> "serve-miss"
  | Serve_sweep -> "serve-sweep"
  | Cli_batch -> "cli-batch"

let of_name s = List.find_opt (fun w -> name w = s) all

(* The configuration users run: two workers, one trial job each, every
   other flag at its default (Obs on, 1 s sampler, 128 cache entries). *)
let workers = 2
let server_args = [ "serve"; "--port"; "0"; "--workers"; string_of_int workers; "--jobs"; "1" ]
let cache_entries = 128

(* Closed loop: each connection waits for its reply before sending the
   next request, as every API caller of the service does.  One
   connection keeps the runnable threads (driver, acceptor, one busy
   worker) within two cores; with two connections the server's threads
   outnumber the cores and the tail measures the scheduler. *)
let connections = 1

(* How often the closed loop pauses to read the host's speed
   ([Hostspeed]); a reading takes about 5 ms.  Set-ups and CLI children,
   a few long operations rather than thousands of short ones, are each
   bracketed by the mean of [probe_readings] readings. *)
let probe_every_s = 0.25
let probe_readings = 8

(* Set-up is timed this many times per run and reported as the median.
   A set-up is one cold process start, so a single slow spawn is common;
   eleven keep one or two of them from setting the median. *)
let setups = 11

let rng seed = Random.State.make [| 0x5e1a; seed |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* JSON spellings of the failure models the simulate workloads draw. *)
let models = [| "0.005"; "0.01"; "0.02"; "0.05"; {|"s1"|}; {|"s2"|} |]

let simulate_body ~model ~trials = Printf.sprintf {|{"model":%s,"trials":%d}|} model trials

(* serve-hit: 32 distinct bodies, trials 4..35 in seeded order, each with
   a seeded model.  32 keys fit the 128-entry cache with room to spare,
   so after one warm pass every request is a hit. *)
let hit_bodies seed =
  let st = rng seed in
  let trials = Array.init 32 (fun i -> 4 + i) in
  shuffle st trials;
  Array.map
    (fun t -> simulate_body ~model:models.(Random.State.int st (Array.length models)) ~trials:t)
    trials

(* serve-miss: every (model, trials) pair with trials in 200..1200, in
   seeded order.  No key repeats, so every request runs its trials and
   inserts into a full cache; a run that exhausts the pool stops early. *)
let miss_trials_lo = 200
let miss_trials_hi = 1200

let miss_bodies seed =
  let span = miss_trials_hi - miss_trials_lo + 1 in
  let pool =
    Array.init (Array.length models * span) (fun i ->
        simulate_body ~model:models.(i / span) ~trials:(miss_trials_lo + (i mod span)))
  in
  shuffle (rng seed) pool;
  pool

(* One trial per model, outside the pool's trial range: compiles the six
   plans before the clock starts. *)
let miss_warm_bodies = Array.map (fun model -> simulate_body ~model ~trials:1) models

(* serve-sweep: 4 models x 16 ITU scales x 4 equal trial counts = 256
   cells over the submarine network, where the ITU scale never reaches a
   plan key: 4 plans, 4 batches.  The seed picks the dataset seed.

   A run cycles 15 such grids, trials 15, 20, ..., 85 (median 50) in
   seeded order, as (trials, body) pairs.  Identical requests would put
   every latency in one of two narrow peaks, one per speed a shared CPU
   runs at, and the median would jump between them from run to run;
   spreading the work per request lets it move smoothly instead. *)
let sweep_grids seed =
  let st = rng seed in
  let dataset_seed = 1 + Random.State.int st 1_000_000 in
  let scales = List.init 16 (fun i -> Printf.sprintf "%.2f" (0.05 *. float_of_int (i + 1))) in
  let body t =
    Printf.sprintf
      {|{"model":[0.005,0.01,0.02,"s1"],"itu_scale":[%s],"trials":[%d,%d,%d,%d],"seed":%d}|}
      (String.concat "," scales) t t t t dataset_seed
  in
  let trials = Array.init 15 (fun i -> 15 + (5 * i)) in
  shuffle st trials;
  Array.map (fun t -> (t, body t)) trials

let sweep_bodies seed = Array.map snd (sweep_grids seed)

(* The grid of median size, which the traced replay runs. *)
let sweep_median_body seed = List.assoc 50 (Array.to_list (sweep_grids seed))

(* cli-batch: the paper-reproduction path, no HTTP, no result cache. *)
let figures_args = [ "figures"; "-j"; "2" ]

(* MD5 of [solarstorm figures] stdout at its defaults.  Figure output is
   byte-stable across commits; a change here is a correctness change. *)
let figures_digest = "9bd40be1987fd7dba90021074aba4b76"

let cli_sweep_seeds seed =
  let st = rng seed in
  let rec draw acc =
    if List.length acc = 4 then List.rev acc
    else
      let s = 1 + Random.State.int st 100_000 in
      draw (if List.mem s acc then acc else s :: acc)
  in
  draw []

let cli_sweep_axes seed =
  [
    "network=submarine,intertubes,itu";
    "model=0.005,0.01,0.02,s1,s2";
    "seed=" ^ String.concat "," (List.map string_of_int (cli_sweep_seeds seed));
    "trials=1000";
  ]

let cli_sweep_args seed =
  "sweep" :: "-j" :: "2" :: List.concat_map (fun a -> [ "--axis"; a ]) (cli_sweep_axes seed)

let cli_setup_args = [ "simulate"; "--trials"; "1"; "--json" ]

let post path body =
  Printf.sprintf
    "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    path (String.length body) body

let get path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" path

(* The metric catalogue, in report order.  BENCHMARK.json lists the same
   names; [driver.exe smoke] fails when the two disagree. *)
let e2e_metrics =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("ttfb_p50_ms", "ms");
    ("throughput_ops", "1/s");
    ("peak_rss_mb", "MB");
  ]

let layer_metrics =
  [
    ("http.parse_ns", "ns");
    ("http.serialize_ns", "ns");
    ("http.chunk_ns", "ns");
    ("api.decode_ns", "ns");
    ("api.key_ns", "ns");
    ("api.encode_us", "us");
    ("cache.lookup_ns", "ns");
    ("cache.insert_ns", "ns");
    ("router.dispatch_hit_ns", "ns");
    ("dataset.build_ms.submarine", "ms");
    ("dataset.build_ms.intertubes", "ms");
    ("dataset.build_ms.itu", "ms");
    ("plan.compile_us", "us");
    ("plan.sample_ns_per_cable", "ns");
    ("mc.trial_us", "us");
    ("sweep.expand_us", "us");
    ("sweep.first_row_ms", "ms");
    ("sweep.row_line_us", "us");
    ("sweep.run_ms", "ms");
    ("exec.parallel_for_us", "us");
    ("figures.context_ms", "ms");
    ("figures.render_ms", "ms");
    ("obs.overhead_pct.dispatch", "%");
    ("obs.overhead_pct.run_plan", "%");
    ("obs.overhead_pct.sweep", "%");
    ("prog.cache_hit_ratio", "ratio");
    ("prog.plan_compiles_per_op", "count");
    ("prog.busy_share", "ratio");
    ("prog.rejected_busy", "count");
    ("prog.gc_minor_words_per_op", "count");
    ("residual_pct", "%");
    (* The traced run's own p99: reported but not gated, because over ten
       runs of one commit on a shared 2-CPU machine its spread stayed
       above a third of the widest bound a gate may use (serve-hit 13%
       with the host-speed scaling, 24-37% without). *)
    ("latency_p99_ms", "ms");
    (* The run's median host slowdown: what its times were divided by. *)
    ("host.slowdown", "x");
  ]
