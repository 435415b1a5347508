(* Benchmark + figure-regeneration harness.

   `dune exec bench/main.exe` does two things:
   1. regenerates every table and figure of the paper (the same series the
      paper reports, printed as text) — the reproduction harness;
   2. runs a Bechamel micro-benchmark per experiment kernel.

   `dune exec bench/main.exe -- --fast` skips the Bechamel pass.
   `dune exec bench/main.exe -- --json FILE` additionally writes a
   BENCH.json-shaped document: per-kernel timings (Bechamel OLS estimates,
   or a single timed run per kernel in --fast mode) plus an Obs metrics
   snapshot of the figure pass.  This is what seeds the repo's perf
   trajectory (BENCH_*.json).

   `-- --baseline FILE` diffs this run's kernel timings against a prior
   solarstorm-bench/1 document and exits non-zero when any kernel
   regressed past `--threshold PCT` (default 20%); `--baseline-scale F`
   scales the baseline first (check.sh uses 0.5 to prove the gate trips
   on an injected 2x slowdown).  See bench/baseline.ml. *)

let print_figures () =
  print_endline "==============================================================";
  print_endline " Solar Superstorms reproduction: regenerating tables & figures";
  print_endline "==============================================================";
  let ctx = Report.Figures.make_context () in
  List.iter
    (fun (id, text) ->
      Printf.printf "\n----- %s -----\n%s\n" id text;
      flush stdout)
    (Report.Figures.all ctx);
  ctx

(* A live loopback server for the serve.throughput kernels: one domain
   running the real Service loop as worker 0 (plus [workers - 1] more
   worker domains) on an ephemeral port.  The returned closure stops and
   joins it. *)
let boot_server ~workers () =
  let server =
    Server.Service.create
      {
        Server.Service.default_config with
        Server.Service.port = 0;
        workers;
        idle_poll_s = 0.01;
        drain_grace_s = 0.5;
        log = ignore;
      }
  in
  let d = Domain.spawn (fun () -> Server.Service.run server) in
  ( Server.Service.port server,
    fun () ->
      Server.Service.stop server;
      Domain.join d )

(* The sweep kernels' grid: 4 models x 4 itu scales x 4 duplicate trial
   values = 64 cells over the default submarine network, where itu_scale
   never reaches a plan key — exactly 4 plans compile and 4 batches of
   100 trials run. *)
let sweep_grid () =
  let specs =
    [ "model=0.005,0.01,0.02,s1"; "itu_scale=0.1,0.2,0.3,0.4"; "trials=100,100,100,100" ]
  in
  let axes =
    List.map
      (fun s ->
        match Stormsim.Sweep.axis_of_spec s with Ok a -> a | Error e -> failwith e)
      specs
  in
  match Stormsim.Sweep.expand axes with Ok cells -> cells | Error e -> failwith e

(* One Monte-Carlo trial as [Segment_model.compare_models] runs it: a
   fresh dead set, then both percentages. *)
let trial plan rng =
  let dead = Stormsim.Plan.sample plan rng in
  ignore (Stormsim.Montecarlo.cables_failed_pct (Stormsim.Plan.network plan) dead);
  ignore (Stormsim.Plan.unreachable_attached_pct plan dead)

(* One kernel per table/figure, shared by the Bechamel pass and the
   single-run --fast timings. *)
let kernels ctx ~port ~port_par : (string * (unit -> unit)) list =
  let sub = Report.Figures.submarine ctx in
  let rng = Rng.create 99 in
  let uniform_plan =
    Stormsim.Plan.compile ~network:sub ~model:(Stormsim.Failure_model.uniform 0.01) ()
  in
  let tiered_plan = Stormsim.Plan.compile ~network:sub ~model:Stormsim.Failure_model.s1 () in
  (* Shared buffer so plan.sample vs plan.sample-recompute time pure
     sampling, not allocation. *)
  let dead_buf = Stormsim.Deadset.create (Stormsim.Plan.nb_cables uniform_plan) in
  let graph, _ = Infra.Network.to_graph sub in
  let storm = Gic.Disturbance.storm_of_dst (-1200.0) in
  (* The longest cable of the dataset (the SEA-ME-WE 3 analogue in the
     synthetic build; found at runtime, whatever it is). *)
  let long_cable = Infra.Network.longest_cable sub in
  [
    ("fig3-latitude-pdf", fun () -> ignore (Stormsim.Distribution.fig3 ~submarine:sub));
    ( "fig4-threshold-curves",
      fun () ->
        ignore
          (Stormsim.Distribution.fig4a ~submarine:sub
             ~intertubes:(Report.Figures.intertubes ctx)) );
    ( "fig5-length-cdf",
      fun () ->
        ignore
          (Stormsim.Distribution.fig5 ~submarine:sub
             ~intertubes:(Report.Figures.intertubes ctx) ~itu:(Report.Figures.itu ctx)) );
    ( "plan.compile",
      fun () ->
        ignore (Stormsim.Plan.compile ~network:sub ~model:Stormsim.Failure_model.s1 ()) );
    ("plan.sample", fun () -> Stormsim.Plan.sample_into uniform_plan rng dead_buf);
    ( "plan.sample-recompute",
      fun () -> Stormsim.Plan.sample_recompute_into uniform_plan rng dead_buf );
    ("fig6-uniform-trial", fun () -> trial uniform_plan rng);
    (* The same 200-trial Monte-Carlo workload three ways: a plain
       sequential loop, the Domain engine at one job (its overhead over
       the loop), and at four jobs (scaling, bounded by the machine's
       core count). *)
    ( "plan.trials-seq",
      fun () ->
        for _ = 1 to 200 do
          trial tiered_plan rng
        done );
    ( "plan.trials-par1",
      fun () -> ignore (Stormsim.Montecarlo.run_plan ~trials:200 ~jobs:1 ~seed:13 tiered_plan) );
    ( "plan.trials-par4",
      fun () -> ignore (Stormsim.Montecarlo.run_plan ~trials:200 ~jobs:4 ~seed:13 tiered_plan) );
    (* A 64-cell sweep that collapses to 4 distinct plans (itu_scale is
       normalized out of submarine keys; duplicate trials values are
       distinct cells in shared batches): the whole grid engine —
       expansion, plan dedup, batch trials, row rendering — at one job
       vs four.  Rows identical either way; par4 should win on >= 4
       cores. *)
    ( "sweep.grid-seq",
      let cells = sweep_grid () in
      fun () -> ignore (Stormsim.Sweep.run ~jobs:1 ~cells ~emit:ignore ()) );
    ( "sweep.grid-par4",
      let cells = sweep_grid () in
      fun () -> ignore (Stormsim.Sweep.run ~jobs:4 ~cells ~emit:ignore ()) );
    ("fig8-tiered-trial", fun () -> trial tiered_plan rng);
    ("fig9-as-analysis", fun () -> ignore (Stormsim.Systems.analyze_ases (Report.Figures.ases ctx)));
    ( "country-case-study",
      fun () ->
        ignore
          (Stormsim.Country.evaluate ~trials:5 sub
             (List.hd Stormsim.Country.paper_case_studies)) );
    ( "gic-exposure-longest-cable",
      fun () -> ignore (Infra.Exposure.of_cable ~storm ~network:sub long_cable) );
    ( "graph-connected-components",
      fun () -> ignore (Netgraph.Traversal.connected_components graph) );
    ( "mitigation-partitions",
      fun () -> ignore (Stormsim.Mitigation.predicted_partitions ~network:sub ()) );
    ( "leo-storm-assessment",
      fun () ->
        ignore (Leo.Storm_impact.assess ~dst_nt:(-1200.0) Leo.Constellation.starlink_phase1) );
    ( "grid-coupled-trial",
      fun () ->
        ignore
          (Stormsim.Powergrid.simulate ~trials:1 ~network:sub
             ~model:Stormsim.Failure_model.s1 ~dst_nt:(-1200.0) ()) );
    ( "traffic-routing",
      let demands = Stormsim.Traffic.gravity_demands () in
      fun () -> ignore (Stormsim.Traffic.route ~network:sub ~demands ()) );
    ( "recovery-plan",
      let dead = Array.init (Infra.Network.nb_cables sub) (fun i -> i mod 3 = 0) in
      fun () -> ignore (Stormsim.Recovery.plan ~network:sub ~dead ()) );
    ( "service-availability",
      fun () ->
        ignore
          (Stormsim.Resilience_test.evaluate ~network:sub
             (List.hd Stormsim.Resilience_test.sample_services)) );
    ( "event-sequence-30y",
      let seq_rng = Rng.create 5 in
      fun () ->
        ignore
          (Spaceweather.Event_generator.generate ~rng:seq_rng ~start:2021.0 ~stop:2051.0 ())
    );
    (* Service layer: request parsing, a cache-hit request end to end
       (routing + decode + LRU lookup, no trials), and a /metrics
       render. *)
    ( "serve.parse-request",
      let raw =
        let body = "{\"trials\":4,\"seed\":11}" in
        Printf.sprintf "POST /simulate HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
          (String.length body) body
      in
      fun () ->
        ignore (Server.Http.parse_request (Server.Http.conn_of_string raw)) );
    ( "serve.request-cached",
      let routes = Server.Handlers.routes () in
      let req =
        {
          Server.Http.meth = Server.Http.POST;
          target = "/simulate";
          version = "HTTP/1.1";
          headers = [];
          body = "{\"trials\":4,\"seed\":11}";
        }
      in
      (* Warm the result cache so the kernel times the replay path. *)
      ignore (Server.Router.dispatch ~routes req);
      fun () -> ignore (Server.Router.dispatch ~routes req) );
    ( "serve.metrics-render",
      fun () -> ignore (Obs.Export.prometheus (Obs.Metrics.snapshot ())) );
    (* One self-monitoring sampler tick: snapshot the whole registry
       into the ring and evaluate a representative SLO rule — the cost
       the background sampler adds to a serving process each step. *)
    ( "obs.timeseries-sample",
      let ts = Obs.Timeseries.create ~retention:64 () in
      let alerts =
        match Obs.Alerts.parse_rule "server.request.ms:p99<50:5m" with
        | Ok r -> Obs.Alerts.create [ r ]
        | Error _ -> assert false
      in
      fun () ->
        Obs.Timeseries.sample ts;
        Obs.Alerts.evaluate alerts ts );
    (* End-to-end serving over loopback: 32 pipelined cache-hit requests
       against the live server domain per run — socket writes, the
       select loop, parse, route, LRU replay and the response path all
       included.  ns_per_run / 32 ≈ per-request service time. *)
    ( "serve.throughput",
      let target = { Server.Loadgen.host = "127.0.0.1"; port; path = "/simulate" } in
      let body = Some "{\"trials\":4,\"seed\":11}" in
      (* Warm the result cache so the kernel times the replay path. *)
      ignore (Server.Loadgen.run ~requests:1 ~body target);
      fun () -> ignore (Server.Loadgen.run ~pipeline:8 ~requests:32 ~body target) );
    (* Same replay workload against the 4-worker pool, driven by four
       pipelining connections — the multicore headline.  On a machine
       with >= 4 cores its per-request time should undercut
       serve.throughput's (128 requests here vs 32 above, so compare
       ns_per_run / requests, which the baseline gate does per-kernel). *)
    ( "serve.throughput-par",
      let target =
        { Server.Loadgen.host = "127.0.0.1"; port = port_par; path = "/simulate" }
      in
      let body = Some "{\"trials\":4,\"seed\":11}" in
      ignore (Server.Loadgen.run ~requests:1 ~body target);
      fun () ->
        ignore (Server.Loadgen.run ~connections:4 ~pipeline:8 ~requests:128 ~body target)
    );
  ]

(* (kernel, ns/run, estimator) rows for the JSON document. *)
let run_bechamel ks =
  let open Bechamel in
  let open Bechamel.Toolkit in
  print_endline "\n==============================================================";
  print_endline " Bechamel micro-benchmarks (one kernel per experiment)";
  print_endline "==============================================================";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  List.concat_map
    (fun (name, f) ->
      let test = Test.make ~name (Staged.stage f) in
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      let rows = ref [] in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "%-32s %12.0f ns/run\n" name est;
              rows := (name, est, "bechamel-ols") :: !rows
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        ols;
      flush stdout;
      List.rev !rows)
    ks

(* Cheap --fast timings: best of three runs per kernel against the
   monotonic clock.  Coarse, but enough to seed a perf trajectory (and to
   order kernels against each other) without paying for a Bechamel
   pass. *)
let run_single ks =
  List.map
    (fun (name, f) ->
      let once () =
        let t0 = Obs.Clock.monotonic () in
        f ();
        Int64.to_float (Int64.sub (Obs.Clock.monotonic ()) t0)
      in
      let dt = Float.min (once ()) (Float.min (once ()) (once ())) in
      (name, dt, "min-of-3"))
    ks

let write_json ~path ~mode ~kernel_rows ~metrics =
  let kernel_json =
    String.concat ","
      (List.map
         (fun (name, ns, estimator) ->
           Printf.sprintf "{\"name\":\"%s\",\"ns_per_run\":%s,\"estimator\":\"%s\"}"
             (Obs.Json.escape name) (Obs.Json.number_repr ns) estimator)
         kernel_rows)
  in
  let doc =
    (* recommended_domain_count records the runner's parallel capacity so
       a reader (or check.sh) can tell whether this machine could even
       exercise the par kernels — a 1-core container's par4 number is a
       scheduling artifact, not a regression. *)
    Printf.sprintf
      "{\"schema\":\"solarstorm-bench/1\",\"mode\":\"%s\",\"recommended_domain_count\":%d,\"kernels\":[%s],\"metrics\":%s}\n"
      mode
      (Exec.available_jobs ())
      kernel_json
      (Obs.Export.json_of_snapshot metrics)
  in
  let oc = open_out path in
  output_string oc doc;
  close_out oc;
  Printf.printf "\nbench json written to %s\n" path

let () =
  let fast = ref false and json = ref None in
  let baseline = ref None and threshold = ref 20.0 and scale = ref 1.0 in
  let pos_float flag v k =
    match float_of_string_opt v with
    | Some f when f > 0.0 -> k f
    | _ -> Printf.eprintf "%s requires a positive number, got %s\n" flag v; exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest -> fast := true; parse rest
    | "--json" :: path :: rest -> json := Some path; parse rest
    | "--json" :: [] -> prerr_endline "--json requires a FILE argument"; exit 2
    | "--baseline" :: path :: rest -> baseline := Some path; parse rest
    | "--baseline" :: [] -> prerr_endline "--baseline requires a FILE argument"; exit 2
    | "--threshold" :: pct :: rest ->
        pos_float "--threshold" pct (fun f -> threshold := f); parse rest
    | "--threshold" :: [] -> prerr_endline "--threshold requires a percentage"; exit 2
    | "--baseline-scale" :: v :: rest ->
        pos_float "--baseline-scale" v (fun f -> scale := f); parse rest
    | "--baseline-scale" :: [] -> prerr_endline "--baseline-scale requires a factor"; exit 2
    | arg :: _ -> Printf.eprintf "unknown argument %s\n" arg; exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !json <> None then Obs.enable ();
  let ctx = print_figures () in
  (* Two live servers: the single-worker reference and the 4-worker
     pool, both stopped once every kernel has run. *)
  let port, stop_server = boot_server ~workers:1 () in
  let port_par, stop_server_par = boot_server ~workers:4 () in
  let ks = kernels ctx ~port ~port_par in
  let kernel_rows =
    if not !fast then run_bechamel ks
    else if !json <> None || !baseline <> None then run_single ks
    else []
  in
  stop_server ();
  stop_server_par ();
  (match !json with
  | None -> ()
  | Some path ->
      Obs.Resource.sample ();
      write_json ~path
        ~mode:(if !fast then "fast" else "full")
        ~kernel_rows ~metrics:(Obs.Metrics.snapshot ()));
  match !baseline with
  | None -> ()
  | Some path ->
      let code =
        Baseline.compare_run ~current:kernel_rows ~path ~threshold_pct:!threshold
          ~scale:!scale
      in
      if code <> 0 then exit code
