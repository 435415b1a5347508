(* solarstorm — command-line front end for the solar-superstorm Internet
   resilience simulator.

     solarstorm figures            regenerate paper figures (all or --id)
     solarstorm map                ASCII world map of a network
     solarstorm simulate           Monte-Carlo failure sweep
     solarstorm scenario           end-to-end CME scenario
     solarstorm countries          country-scale case studies
     solarstorm systems            AS / data-center / DNS analysis
     solarstorm mitigate           shutdown + augmentation + partitions
     solarstorm probability        occurrence-probability table
     solarstorm serve              long-running HTTP simulation service
     solarstorm loadgen            hammer a live server, report req/s + tails *)

open Cmdliner

let ctx_of ~seed ~itu_scale ~caida_ases =
  Report.Figures.make_context ~seed ~itu_scale ~caida_ases ()

(* The subcommands that print one figure: its [figures --id] text. *)
let print_figure ctx id = print_string (Option.get (Report.Figures.render ctx id))

(* Shared options. *)
let seed_t =
  Arg.(value & opt int Datasets.default_seed & info [ "seed" ] ~doc:"Dataset seed.")

let trials_t = Arg.(value & opt int 10 & info [ "trials" ] ~doc:"Monte-Carlo trials.")

let itu_scale_t =
  Arg.(value & opt float 0.3 & info [ "itu-scale" ] ~doc:"ITU network scale in (0, 1].")

let caida_t =
  Arg.(value & opt int 8000 & info [ "ases" ] ~doc:"Number of synthetic ASes.")

let out_dir_t =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
         ~doc:"Also write figure data as CSV files under $(docv).")

let markdown_t =
  Arg.(value & opt (some string) None & info [ "markdown" ] ~docv:"FILE"
         ~doc:"Also write all rendered figures to $(docv) as markdown.")

(* Parallelism: --jobs lands in Exec's process-wide default once at
   startup, so every Monte-Carlo consumer deep in the figure pipeline
   picks it up without threading a parameter through each call.  Output
   is byte-identical for any job count (Plan.run_trials_par pre-splits
   trial RNGs and merges in trial order). *)
let jobs_t =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for Monte-Carlo trials, and for the \
                 figures and dataset builds of $(b,figures) and $(b,sweep) \
                 (default: $(b,SOLARSTORM_JOBS) when set, else 1).  \
                 Results are byte-identical for any $(docv).")

(* Observability plumbing, shared by every subcommand:
   --metrics/--trace/--profile switch the Obs layer on for the duration
   of the command and dump the collected data afterwards; --progress
   turns on the live trial meter (stderr only).  Without any of them the
   layer stays off and output is byte-identical to an uninstrumented
   build. *)
let metrics_t =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write a metrics + span summary table to $(docv) after the run \
               ($(b,-) = stderr).")

let trace_t =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write the span trace as JSONL (one event per line) to $(docv) \
               ($(b,-) = stderr).")

let profile_t =
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE"
         ~doc:"Write a Chrome/Perfetto trace-event JSON profile to $(docv) \
               ($(b,-) = stderr); one timeline row per worker domain.  Load \
               in ui.perfetto.dev or chrome://tracing.")

let progress_t =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Render a live $(b,done/total, trials/s, ETA) meter for \
               Monte-Carlo trial loops on stderr.  Stdout stays \
               byte-identical.")

let log_t =
  Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
         ~doc:"Write structured JSONL logs (one JSON object per line) to \
               $(docv) ($(b,-) = stderr).  Independent of the other \
               observability switches; stdout stays byte-identical.")

let write_dump dst content =
  match dst with
  | "-" ->
      output_string stderr content;
      flush stderr
  | path ->
      let oc = open_out path in
      output_string oc content;
      close_out oc

(* --log: route Obs.Log at a file (or stderr) for the duration of [run].
   The sink flushes per line so a crash loses at most the line being
   written. *)
let with_log log run =
  match log with
  | None -> run ()
  | Some dst ->
      let sink, cleanup =
        match dst with
        | "-" -> ((fun s -> output_string stderr s; flush stderr), fun () -> ())
        | path ->
            let oc = open_out path in
            ((fun s -> output_string oc s; flush oc), fun () -> close_out oc)
      in
      Obs.Log.set_sink sink;
      Obs.Log.enable ();
      Fun.protect
        ~finally:(fun () ->
          Obs.Log.disable ();
          cleanup ())
        run

let with_obs ~cmd jobs progress metrics trace profile log run =
  Option.iter Exec.set_default_jobs jobs;
  (* With two domains allocating, OCaml 5.1's major GC finishes about half
     as many cycles over a figure pass, and peak RSS rose from 24.4 to
     28.8 MB on a 2-CPU VM.  A lower space overhead (default 120) makes
     it collect sooner: 26.1 MB, at the same wall time. *)
  if Exec.default_jobs () > 1 then Gc.set { (Gc.get ()) with space_overhead = 80 };
  if progress then Obs.Progress.enable ();
  with_log log @@ fun () ->
  Obs.Log.info "cmd.start" [ ("cmd", Obs.Json.String cmd) ];
  let t0 = Obs.Span.now () in
  let finish () =
    Obs.Log.info "cmd.done"
      [
        ("cmd", Obs.Json.String cmd);
        ( "dur_ms",
          Obs.Json.Number (Int64.to_float (Int64.sub (Obs.Span.now ()) t0) /. 1e6) );
      ]
  in
  if metrics = None && trace = None && profile = None then begin
    run ();
    finish ()
  end
  else begin
    Obs.enable ();
    run ();
    Obs.Resource.sample ();
    Option.iter
      (fun dst ->
        write_dump dst
          (Report.Obs_report.render ~events:(Obs.Span.events ()) (Obs.Metrics.snapshot ())))
      metrics;
    Option.iter (fun dst -> write_dump dst (Obs.Export.jsonl (Obs.Span.events ()))) trace;
    Option.iter
      (fun dst -> write_dump dst (Obs.Export.chrome_trace (Obs.Span.events ())))
      profile;
    finish ()
  end

let obs_args term =
  Cmdliner.Term.(term $ jobs_t $ progress_t $ metrics_t $ trace_t $ profile_t $ log_t)

(* figures *)
let figures_cmd =
  let id_t =
    Arg.(value & opt (some string) None & info [ "id" ] ~doc:"Only this figure id.")
  in
  let run seed trials itu_scale caida_ases id out_dir markdown jobs progress metrics trace profile log =
    with_obs ~cmd:"figures" jobs progress metrics trace profile log @@ fun () ->
    let ctx = ctx_of ~seed ~itu_scale ~caida_ases in
    (* Validate the id before any side effect: a failed invocation must not
       clobber the --markdown output file, nor build a dataset. *)
    (match id with
    | Some id when not (List.mem id Report.Figures.ids) ->
        Printf.eprintf "unknown figure id; known: %s\n"
          (String.concat ", " Report.Figures.ids);
        exit 1
    | _ -> ());
    (* --id renders its own figure alone, unless --markdown wants them all. *)
    let all = if id = None || markdown <> None then Report.Figures.all ~trials ctx else [] in
    let selected =
      match id with
      | None -> all
      | Some id -> (
          match List.assoc_opt id all with
          | Some text -> [ (id, text) ]
          | None -> [ (id, Option.get (Report.Figures.render ~trials ctx id)) ])
    in
    (match markdown with
    | Some path ->
        Report.Markdown.write_results ~path all;
        Printf.printf "markdown written to %s\n" path
    | None -> ());
    List.iter (fun (fid, text) -> Printf.printf "----- %s -----\n%s\n" fid text) selected;
    (match out_dir with
    | None -> ()
    | Some dir ->
        (if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
        let series_csv () =
          let fig3 = Stormsim.Distribution.fig3 ~submarine:(Report.Figures.submarine ctx) in
          List.iter
            (fun (s : Stormsim.Distribution.pdf_series) ->
              Report.Csv.write_file
                ~path:(Filename.concat dir (Printf.sprintf "fig3-%s.csv" s.label))
                (Report.Csv.of_series ~header:("latitude", "density_pct") s.points))
            fig3;
          let fig5 =
            Stormsim.Distribution.fig5 ~submarine:(Report.Figures.submarine ctx)
              ~intertubes:(Report.Figures.intertubes ctx) ~itu:(Report.Figures.itu ctx)
          in
          List.iter
            (fun (s : Stormsim.Distribution.cdf_series) ->
              Report.Csv.write_file
                ~path:(Filename.concat dir (Printf.sprintf "fig5-%s.csv" s.label))
                (Report.Csv.of_series ~header:("length_km", "cdf") s.points))
            fig5
        in
        series_csv ();
        Printf.printf "CSV series written to %s\n" dir)
  in
  let term =
    obs_args
      Term.(const run $ seed_t $ trials_t $ itu_scale_t $ caida_t $ id_t $ out_dir_t
            $ markdown_t)
  in
  Cmd.v (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures") term

(* map *)
let network_conv =
  Arg.enum
    Stormsim.Sweep.
      [ ("submarine", Submarine); ("intertubes", Intertubes); ("itu", Itu) ]

let map_cmd =
  let net_t =
    Arg.(value & opt network_conv Stormsim.Sweep.Submarine
         & info [ "network" ] ~doc:"Network to draw.")
  in
  let run seed net jobs progress metrics trace profile log =
    with_obs ~cmd:"map" jobs progress metrics trace profile log @@ fun () ->
    let network =
      match net with
      | Stormsim.Sweep.Submarine -> Datasets.Cache.submarine ~seed ()
      | Intertubes -> Datasets.Cache.intertubes ~seed ()
      | Itu -> Datasets.Cache.itu ~seed ~scale:0.1 ()
    in
    print_string (Report.Worldmap.render (Report.Worldmap.network_layers network))
  in
  Cmd.v (Cmd.info "map" ~doc:"ASCII world map of a network")
    (obs_args Term.(const run $ seed_t $ net_t))

(* simulate *)
let model_conv : Stormsim.Failure_model.t Arg.conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Stormsim.Failure_model.of_string s)
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Stormsim.Failure_model.to_string m))

(* --json: render through the same Server.Api compute + encode path the
   HTTP service uses, so the bytes match a serve response for the same
   parameters exactly. *)
let json_t =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the result as one compact JSON document — byte-identical \
               to the $(b,serve) endpoint's response body for the same \
               parameters.")

let simulate_cmd =
  let model_t =
    Arg.(value & opt model_conv (Stormsim.Failure_model.uniform 0.01)
         & info [ "model" ] ~doc:"s1 | s2 | physical | uniform probability.")
  in
  let spacing_t =
    Arg.(value & opt float 150.0 & info [ "spacing" ] ~doc:"Inter-repeater distance (km).")
  in
  let net_t =
    Arg.(value & opt network_conv Stormsim.Sweep.Submarine
         & info [ "network" ] ~doc:"Network.")
  in
  let run seed trials itu_scale model spacing network json jobs progress metrics trace
      profile log =
    with_obs ~cmd:"simulate" jobs progress metrics trace profile log @@ fun () ->
    let cell =
      { Stormsim.Sweep.network; model; spacing_km = spacing; itu_scale; seed; trials }
    in
    if json then print_string (Server.Api.simulate_body cell)
    else
      ignore
        (Stormsim.Sweep.run ~cells:[| cell |] () ~emit:(fun row ->
             let s = row.Stormsim.Sweep.stats in
             Printf.printf "%s under %s at %.0f km spacing (%d trials):\n"
               (Stormsim.Sweep.network_id_to_string network)
               (Stormsim.Failure_model.to_string model) spacing trials;
             Printf.printf "  cables failed     %.1f%% +- %.1f\n"
               s.Stormsim.Montecarlo.cables_mean s.Stormsim.Montecarlo.cables_std;
             Printf.printf "  nodes unreachable %.1f%% +- %.1f\n"
               s.Stormsim.Montecarlo.nodes_mean s.Stormsim.Montecarlo.nodes_std))
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Monte-Carlo failure simulation")
    (obs_args
       Term.(const run $ seed_t $ trials_t $ itu_scale_t $ model_t $ spacing_t $ net_t
             $ json_t))

(* sweep *)
let sweep_cmd =
  let axis_t =
    Arg.(value & opt_all string []
         & info [ "axis"; "a" ] ~docv:"KEY=V1,V2,..."
             ~doc:"Grid axis: one of $(b,network), $(b,model), \
                   $(b,spacing_km), $(b,itu_scale), $(b,seed), \
                   $(b,trials) with a comma-separated value list.  \
                   Repeatable; the first axis varies slowest.  Without \
                   any axis the grid is the single all-defaults cell.")
  in
  let run axes jobs progress metrics trace profile log =
    let parsed =
      List.map
        (fun spec ->
          match Stormsim.Sweep.axis_of_spec spec with
          | Ok axis -> axis
          | Error msg ->
              Printf.eprintf "sweep: --axis %s\n" msg;
              exit 2)
        axes
    in
    let cells =
      match Stormsim.Sweep.expand parsed with
      | Ok cells -> cells
      | Error msg ->
          Printf.eprintf "sweep: %s\n" msg;
          exit 2
    in
    with_obs ~cmd:"sweep" jobs progress metrics trace profile log @@ fun () ->
    (* One JSONL row per cell, flushed once per trial batch so
       downstream pipes see each batch's rows as soon as they exist —
       the same bytes and flush points as POST /sweep. *)
    let summary =
      Stormsim.Sweep.run ~cells ~flush:(fun () -> flush stdout) ()
        ~emit:(fun row -> print_string (Stormsim.Sweep.row_line row))
    in
    Printf.eprintf "sweep: %d cells, %d rows, %d plans compiled, %d batches\n"
      summary.Stormsim.Sweep.cells summary.Stormsim.Sweep.rows
      summary.Stormsim.Sweep.plans_compiled summary.Stormsim.Sweep.batches
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Expand a parameter grid and stream one JSONL result row per \
             cell to stdout.  Axes combine as a cartesian product; cells \
             that compile to the same simulation plan share one compiled \
             plan, and cells that also share seed and trial count share \
             one trial batch.  Output is byte-identical for any \
             $(b,--jobs) count and to the $(b,POST /sweep) endpoint's \
             de-chunked body for the same grid.  A summary line \
             (cells/rows/plans/batches) goes to stderr.")
    (obs_args Term.(const run $ axis_t))

(* scenario *)
let scenario_cmd =
  let event_t =
    Arg.(value & opt (some string) (Some "carrington")
         & info [ "event" ] ~doc:"Historical event name (catalog lookup).")
  in
  let speed_t =
    Arg.(value & opt (some float) None
         & info [ "speed" ] ~doc:"Custom CME launch speed (km/s), overrides --event.")
  in
  let physical_t =
    Arg.(value & flag & info [ "physical" ] ~doc:"Also run the GIC-physical model.")
  in
  let run seed trials event speed physical json jobs progress metrics trace profile log =
    with_obs ~cmd:"scenario" jobs progress metrics trace profile log @@ fun () ->
    let source =
      match speed with
      | Some v -> Server.Api.Speed v
      | None -> Server.Api.Event (Option.value ~default:"carrington" event)
    in
    let params = { Server.Api.source; sc_seed = seed; sc_trials = trials; physical } in
    let out =
      if json then Server.Api.scenario_body params
      else Result.map (Format.asprintf "%a@." Stormsim.Scenario.pp) (Server.Api.scenario params)
    in
    match out with
    | Ok text -> print_string text
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
  in
  Cmd.v (Cmd.info "scenario" ~doc:"End-to-end CME impact scenario")
    (obs_args
       Term.(const run $ seed_t $ trials_t $ event_t $ speed_t $ physical_t $ json_t))

(* countries *)
let countries_cmd =
  let run seed trials json jobs progress metrics trace profile log =
    with_obs ~cmd:"countries" jobs progress metrics trace profile log @@ fun () ->
    if json then
      print_string
        (Server.Api.countries_body { Server.Api.co_seed = seed; co_trials = trials })
    else begin
      let net = Datasets.Cache.submarine ~seed () in
      let findings = Stormsim.Country.run_all ~trials net in
      List.iter
        (fun (f : Stormsim.Country.finding) ->
          Printf.printf "%-24s %-3s P(loss)=%.2f  (%d cables)  %s\n"
            f.Stormsim.Country.spec.Stormsim.Country.id
            f.Stormsim.Country.spec.Stormsim.Country.state_name
            f.Stormsim.Country.loss_probability f.Stormsim.Country.direct_cables
            f.Stormsim.Country.spec.Stormsim.Country.expectation)
        findings
    end
  in
  Cmd.v (Cmd.info "countries" ~doc:"Country-scale connectivity case studies")
    (obs_args Term.(const run $ seed_t $ trials_t $ json_t))

(* systems *)
let systems_cmd =
  let run seed caida_ases jobs progress metrics trace profile log =
    with_obs ~cmd:"systems" jobs progress metrics trace profile log @@ fun () ->
    let ctx = ctx_of ~seed ~itu_scale:0.05 ~caida_ases in
    print_figure ctx "systems"
  in
  Cmd.v (Cmd.info "systems" ~doc:"AS / data-center / DNS resilience")
    (obs_args Term.(const run $ seed_t $ caida_t))

(* mitigate *)
let mitigate_cmd =
  let run seed jobs progress metrics trace profile log =
    with_obs ~cmd:"mitigate" jobs progress metrics trace profile log @@ fun () ->
    let ctx = ctx_of ~seed ~itu_scale:0.05 ~caida_ases:1000 in
    print_figure ctx "mitigation"
  in
  Cmd.v (Cmd.info "mitigate" ~doc:"Shutdown, augmentation and partition planning")
    (obs_args Term.(const run $ seed_t))

(* leo *)
let leo_cmd =
  let dst_t =
    Arg.(value & opt float (-1200.0) & info [ "dst" ] ~doc:"Storm Dst (nT, negative).")
  in
  let batch_t =
    Arg.(value & opt (some float) None
         & info [ "batch" ] ~docv:"ALT" ~doc:"Also assess an injection batch parked at ALT km.")
  in
  let run dst batch jobs progress metrics trace profile log =
    with_obs ~cmd:"leo" jobs progress metrics trace profile log @@ fun () ->
    let r =
      Leo.Storm_impact.assess ?injection_batch:batch ~dst_nt:dst
        Leo.Constellation.starlink_phase1
    in
    Format.printf "%a@." Leo.Storm_impact.pp r
  in
  Cmd.v (Cmd.info "leo" ~doc:"Storm impact on a LEO mega-constellation")
    (obs_args Term.(const run $ dst_t $ batch_t))

(* decision *)
let decision_cmd =
  let event_t =
    Arg.(value & opt string "carrington" & info [ "event" ] ~doc:"Historical event name.")
  in
  let run seed event jobs progress metrics trace profile log =
    with_obs ~cmd:"decision" jobs progress metrics trace profile log @@ fun () ->
    match Spaceweather.Storm_catalog.find event with
    | None ->
        Printf.eprintf "unknown event %s\n" event;
        exit 1
    | Some e ->
        let net = Datasets.Cache.submarine ~seed () in
        let d =
          Stormsim.Mitigation.shutdown_decision ~cme:e.Spaceweather.Storm_catalog.cme
            ~network:net ()
        in
        Printf.printf
          "severe window %.1f h; failure fraction %.2f powered vs %.2f off; expected downtime %.1f d powered vs %.1f d with shutdown -> %s\n"
          d.Stormsim.Mitigation.storm_window_h d.Stormsim.Mitigation.failure_fraction_powered
          d.Stormsim.Mitigation.failure_fraction_off d.Stormsim.Mitigation.downtime_powered_days
          d.Stormsim.Mitigation.downtime_off_days
          (if d.Stormsim.Mitigation.recommended then "DE-POWER" else "STAY POWERED")
  in
  Cmd.v (Cmd.info "decision" ~doc:"Shutdown decision for a storm (5.2)")
    (obs_args Term.(const run $ seed_t $ event_t))

(* serve *)
let serve_cmd =
  let port_t =
    Arg.(value & opt int 8080
         & info [ "port"; "p" ] ~docv:"PORT"
             ~doc:"TCP port to listen on (0 = OS-assigned ephemeral port; the \
                   bound port is printed on startup).")
  in
  let host_t =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Bind name or address.")
  in
  let cache_t =
    Arg.(value & opt int 128
         & info [ "cache-entries" ] ~docv:"N"
             ~doc:"Result-cache capacity: how many distinct request results are \
                   kept (LRU).  0 disables the cache.")
  in
  let max_body_t =
    Arg.(value & opt int (1024 * 1024)
         & info [ "max-body" ] ~docv:"BYTES"
             ~doc:"Largest accepted request body; bigger requests get 413.")
  in
  let max_pending_t =
    Arg.(value & opt int 64
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Connections held at once, at most 960 (the server selects \
                   on descriptors below 1024); the overflow is answered 503 \
                   immediately (backpressure instead of an unbounded queue).")
  in
  let timeout_t =
    Arg.(value & opt float 5.0
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"How long a peer may stall mid-request before it gets 408.")
  in
  let trace_seed_t =
    Arg.(value & opt (some int) None
         & info [ "trace-seed" ] ~docv:"N"
             ~doc:"Seed the per-request trace-id stream so the n-th request \
                   gets the same $(b,X-Trace-Id) on every run (tests, CI).  \
                   Default: seeded from wall clock and pid.")
  in
  let workers_t =
    Arg.(value & opt int 0
         & info [ "workers"; "w" ] ~docv:"N"
             ~doc:"Worker domains serving requests in parallel (responses are \
                   byte-identical for any count).  0 (default) follows \
                   $(b,--jobs)/$(b,SOLARSTORM_JOBS), else 1.")
  in
  let slo_t =
    Arg.(value & opt_all string []
         & info [ "slo" ] ~docv:"RULE"
             ~doc:"SLO alert rule, $(b,METRIC:CONDITION:WINDOW) — e.g. \
                   $(b,server.request.ms:p99<50:5m) (windowed p99 must stay \
                   under 50 ms over 5 minutes) or \
                   $(b,server.requests:rate>1:1m).  Repeatable.  Rules are \
                   evaluated every sampler step with burn-rate \
                   (long + short window) semantics; transitions land in the \
                   $(b,--log) JSONL and $(b,GET /alertz).")
  in
  let sampler_step_t =
    Arg.(value & opt float 1.0
         & info [ "sampler-step" ] ~docv:"SECONDS"
             ~doc:"Self-monitoring sampling step: how often a metrics snapshot \
                   is frozen into the $(b,/varz) ring and SLO rules are \
                   evaluated.  0 disables the background sampler ($(b,/varz) \
                   still samples on scrape).")
  in
  let retention_t =
    Arg.(value & opt int 600
         & info [ "retention" ] ~docv:"N"
             ~doc:"Self-monitoring ring capacity in samples (window queries \
                   can look back at most $(docv) steps).")
  in
  let run port host workers cache_entries max_body max_pending read_timeout trace_seed
      slo sampler_step retention log profile jobs =
    Option.iter Exec.set_default_jobs jobs;
    if workers < 0 then begin
      Printf.eprintf "serve: --workers must be >= 0\n";
      exit 2
    end;
    if cache_entries < 0 then begin
      Printf.eprintf "serve: --cache-entries must be >= 0\n";
      exit 2
    end;
    if max_body <= 0 || read_timeout <= 0.0 then begin
      Printf.eprintf "serve: --max-body and --read-timeout must be positive\n";
      exit 2
    end;
    if sampler_step < 0.0 then begin
      Printf.eprintf "serve: --sampler-step must be >= 0\n";
      exit 2
    end;
    if retention < 2 then begin
      Printf.eprintf "serve: --retention must be >= 2\n";
      exit 2
    end;
    let slo_rules =
      List.map
        (fun src ->
          match Obs.Alerts.parse_rule src with
          | Ok rule -> rule
          | Error msg ->
              Printf.eprintf "serve: --slo %s\n" msg;
              exit 2)
        slo
    in
    (* The service's whole point is live /metrics, so the obs layer is
       always on; the progress meter is forced off so nothing paints
       carriage returns into the server log. *)
    Obs.Progress.disable ();
    Obs.enable ();
    with_log log @@ fun () ->
    Server.Api.set_cache_capacity cache_entries;
    let server =
      match
        Server.Service.create
          { Server.Service.default_config with
            Server.Service.host; port; workers; max_pending; max_body;
            read_timeout_s = read_timeout; trace_seed;
            sampler_step_s = sampler_step; slo_rules; retention }
      with
      | server -> server
      | exception (Failure msg | Invalid_argument msg) ->
          Printf.eprintf "serve: %s\n" msg;
          exit 2
    in
    Server.Service.install_signal_handlers server;
    Server.Service.run server;
    (* After the drain: every request span (tagged with its trace id) is
       still in the rings, so the profile covers the whole serving run. *)
    Option.iter
      (fun dst -> write_dump dst (Obs.Export.chrome_trace (Obs.Span.events ())))
      profile
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running HTTP simulation service (GET /healthz, GET /metrics, \
             GET /statusz, POST /simulate, POST /scenario, POST /countries, \
             POST /sweep streamed as chunked JSONL).  \
             Datasets are built once and shared across requests; a compiled \
             plan lives for one request, and identical requests are served \
             byte-identically from an LRU result cache.  Every response \
             carries an $(b,X-Trace-Id) header; $(b,--log) adds one \
             access-log line per request with the same id.  $(b,--workers) spreads requests over a pool of domains \
             with byte-identical responses.  A background sampler feeds the \
             windowed self-monitoring surface ($(b,GET /varz), \
             $(b,GET /alertz), $(b,GET /dashboard)); $(b,--slo) rules alert \
             on it.  SIGINT/SIGTERM drain in-flight requests across all \
             workers and exit 0.")
    Term.(const run $ port_t $ host_t $ workers_t $ cache_t $ max_body_t
          $ max_pending_t $ timeout_t $ trace_seed_t $ slo_t $ sampler_step_t
          $ retention_t $ log_t $ profile_t $ jobs_t)

(* loadgen *)
let loadgen_cmd =
  let url_t =
    Arg.(required & opt (some string) None
         & info [ "url" ] ~docv:"URL"
             ~doc:"Target endpoint, $(b,http://HOST:PORT/PATH) (a live \
                   $(b,solarstorm serve) instance).")
  in
  let connections_t =
    Arg.(value & opt int 4
         & info [ "connections"; "c" ] ~docv:"N"
             ~doc:"Concurrent keep-alive connections (one domain each).")
  in
  let requests_t =
    Arg.(value & opt int 200
         & info [ "requests"; "n" ] ~docv:"N"
             ~doc:"Total requests, spread evenly over the connections.")
  in
  let body_t =
    Arg.(value & opt (some string) None
         & info [ "body" ] ~docv:"JSON"
             ~doc:"Request body: sends $(b,POST) $(docv) (empty string for \
                   all-defaults).  Without it requests are $(b,GET).")
  in
  let body_file_t =
    Arg.(value & opt (some string) None
         & info [ "body-file" ] ~docv:"FILE"
             ~doc:"Read the $(b,POST) body from $(docv) instead of the \
                   command line (grid objects for $(b,/sweep) targets).  \
                   Mutually exclusive with $(b,--body).")
  in
  let pipeline_t =
    Arg.(value & opt int 1
         & info [ "pipeline" ] ~docv:"DEPTH"
             ~doc:"Requests kept in flight per connection (HTTP/1.1 \
                   pipelining); 1 = strict request/response.")
  in
  let warmup_t =
    Arg.(value & opt int 0
         & info [ "warmup" ] ~docv:"N"
             ~doc:"Per-connection warmup requests driven before measurement: \
                   their latencies and bytes are excluded from the quantiles \
                   and the bench document (connection setup and cold caches \
                   land there).")
  in
  let run url connections requests body body_file pipeline warmup =
    if connections <= 0 || requests <= 0 || pipeline <= 0 then begin
      Printf.eprintf "loadgen: --connections, --requests and --pipeline must be positive\n";
      exit 2
    end;
    if warmup < 0 then begin
      Printf.eprintf "loadgen: --warmup must be >= 0\n";
      exit 2
    end;
    let body =
      match (body, body_file) with
      | Some _, Some _ ->
          Printf.eprintf "loadgen: --body and --body-file are mutually exclusive\n";
          exit 2
      | Some _, None -> body
      | None, Some path -> (
          match In_channel.with_open_bin path In_channel.input_all with
          | contents -> Some contents
          | exception Sys_error msg ->
              Printf.eprintf "loadgen: --body-file: %s\n" msg;
              exit 2)
      | None, None -> None
    in
    match Server.Loadgen.parse_url url with
    | Error msg ->
        Printf.eprintf "loadgen: %s\n" msg;
        exit 2
    | Ok target ->
        let r = Server.Loadgen.run ~connections ~pipeline ~warmup ~requests ~body target in
        prerr_string (Server.Loadgen.summary r);
        print_string (Server.Loadgen.to_bench_json r);
        if r.Server.Loadgen.errors > 0 || r.Server.Loadgen.requests = 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Hammer a live server over loopback and report throughput.  \
             Stdout is a $(b,solarstorm-bench/1) JSON document (latency \
             mean/p50/p95/p99 as kernels, req/s under metrics); a human \
             summary line goes to stderr.  $(b,--warmup) excludes each \
             connection's first responses from the figures.  Chunked \
             responses (e.g. a $(b,/sweep) target, body from \
             $(b,--body-file)) are decoded in-line; first-row latency \
             lands in the $(b,loadgen.ttfb-*) kernels.  Exits 1 if any \
             request failed.")
    Term.(const run $ url_t $ connections_t $ requests_t $ body_t $ body_file_t
          $ pipeline_t $ warmup_t)

(* top *)
let top_cmd =
  let host_t =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port_t =
    Arg.(value & opt int 8080 & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let window_t =
    Arg.(value & opt string "60s"
         & info [ "window" ] ~docv:"WINDOW"
             ~doc:"Lookback window passed to $(b,/varz) (e.g. 30s, 5m).")
  in
  let interval_t =
    Arg.(value & opt float 2.0
         & info [ "interval"; "i" ] ~docv:"SECONDS" ~doc:"Seconds between repaints.")
  in
  let count_t =
    Arg.(value & opt (some int) None
         & info [ "count" ] ~docv:"N"
             ~doc:"Render $(docv) frames and exit (default: run until killed) — \
                   $(b,--count 1) is a one-shot snapshot for scripts.")
  in
  let run host port window interval count =
    if interval <= 0.0 then begin
      Printf.eprintf "top: --interval must be positive\n";
      exit 2
    end;
    (match count with
    | Some n when n <= 0 ->
        Printf.eprintf "top: --count must be positive\n";
        exit 2
    | _ -> ());
    (match Obs.Alerts.parse_window window with
    | Ok _ -> ()
    | Error msg ->
        Printf.eprintf "top: --window: %s\n" msg;
        exit 2);
    match Server.Top.run ~host ~port ~window ~interval_s:interval ~count () with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "top: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal view of a running $(b,solarstorm serve): polls \
             $(b,/statusz) and $(b,/varz) every $(b,--interval) seconds and \
             repaints request rate, windowed latency quantiles (with \
             sparklines), cache and alert state.  The screen is only cleared \
             on a real terminal; redirected output is plain frames.")
    Term.(const run $ host_t $ port_t $ window_t $ interval_t $ count_t)

(* probability *)
let probability_cmd =
  let run () jobs progress metrics trace profile log =
    with_obs ~cmd:"probability" jobs progress metrics trace profile log @@ fun () ->
    print_figure (Report.Figures.make_context ()) "probability"
  in
  Cmd.v (Cmd.info "probability" ~doc:"Occurrence-probability table")
    (obs_args Term.(const run $ const ()))

let main_cmd =
  let doc = "solar-superstorm Internet resilience simulator (SIGCOMM '21 reproduction)" in
  Cmd.group (Cmd.info "solarstorm" ~version:Server.Handlers.version ~doc)
    [ figures_cmd; map_cmd; simulate_cmd; sweep_cmd; scenario_cmd; countries_cmd;
      systems_cmd; mitigate_cmd; probability_cmd; leo_cmd; decision_cmd; serve_cmd;
      loadgen_cmd; top_cmd ]

let () = exit (Cmd.eval main_cmd)
