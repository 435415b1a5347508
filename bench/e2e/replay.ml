(* The traced in-process replay behind [--trace 1].  It calls each
   layer's public functions on the workload's generated inputs, with the
   program's own Obs layer off, under spans the benchmark records itself
   (see [Trace]).  Kernels time a batch of calls per span and report the
   median per-call cost; the request chain replays whole requests of one
   workload so their layer self-times can be set against the end-to-end
   median (the residual).  Obs-on twins of three hot paths give the
   instrumentation cost. *)

open Server

let parse_req s =
  match Http.parse_request (Http.conn_of_string s) with
  | Ok r -> r
  | Error _ -> failwith "replay: request does not parse"

let response_of = function
  | Router.Response r -> r
  | Router.Stream _ -> failwith "replay: expected a fixed response"

(* The header every served response carries. *)
let with_trace_header (r : Http.response) =
  { r with Http.extra_headers = ("X-Trace-Id", "0123456789abcdef") :: r.Http.extra_headers }

(* Median per-call cost, in ns, over [rounds] spans of [ops] calls. *)
let per_op ~name ~rounds ~ops f =
  Stats.median
    (Array.init rounds (fun _ ->
         Trace.timed ~ops name (fun () ->
             for i = 0 to ops - 1 do
               f i
             done)
         /. float_of_int ops))

let median_ms ~name ~rounds f =
  Stats.median (Array.init rounds (fun _ -> Trace.timed name f)) /. 1e6

(* Obs off and on in alternating rounds; the cost of turning it on as a
   percentage of the off time. *)
let obs_overhead ~name ~rounds ~ops f =
  let off = Array.make rounds 0.0 and on = Array.make rounds 0.0 in
  for r = 0 to rounds - 1 do
    off.(r) <- per_op ~name:(name ^ ".obs_off") ~rounds:1 ~ops f;
    Obs.enable ();
    on.(r) <- per_op ~name:(name ^ ".obs_on") ~rounds:1 ~ops f;
    Obs.disable ()
  done;
  Obs.reset ();
  100.0 *. (Stats.median on -. Stats.median off) /. Stats.median off

type inputs = {
  routes : Router.route list;
  hit_reqs : string array;
  hit_params : Api.sim_params array;
  miss_bodies : string array;
  sweep_req : string;
  sweep_cells : Stormsim.Sweep.cell array;
  seed : int;
}

let inputs seed =
  let hit = Workload.hit_bodies seed in
  let sweep = Workload.sweep_median_body seed in
  {
    routes = Handlers.routes ();
    hit_reqs = Array.map (Workload.post "/simulate") hit;
    hit_params = Array.map Check.decode_simulate hit;
    miss_bodies = Workload.miss_bodies seed;
    sweep_req = Workload.post "/sweep" sweep;
    sweep_cells = Check.sweep_cells sweep;
    seed;
  }

let dispatch inp raw = Router.dispatch ~routes:inp.routes (parse_req raw)

(* A fresh result cache holding every serve-hit body, as after the
   workload's warm pass. *)
let prime inp =
  Api.set_cache_capacity Workload.cache_entries;
  Array.iter (fun r -> ignore (dispatch inp r)) inp.hit_reqs

(* The figure pass [solarstorm figures -j 2] runs, from cold datasets;
   returns whether its output still has the recorded digest. *)
let figures ~context ~render =
  Datasets.Cache.clear ();
  let ctx =
    context (fun () ->
        let ctx = Report.Figures.make_context ~seed:42 ~itu_scale:0.3 ~caida_ases:8000 () in
        ignore (Report.Figures.submarine ctx);
        ignore (Report.Figures.intertubes ctx);
        ignore (Report.Figures.itu ctx);
        ignore (Report.Figures.ases ctx);
        ignore (Report.Figures.dns ctx);
        ignore (Report.Figures.ixps ctx);
        ctx)
  in
  Exec.set_default_jobs 2;
  let out =
    Fun.protect ~finally:(fun () -> Exec.set_default_jobs 1) @@ fun () ->
    render (fun () ->
        String.concat ""
          (List.map
             (fun (id, text) -> Printf.sprintf "----- %s -----\n%s\n" id text)
             (Report.Figures.all ~trials:10 ctx)))
  in
  Check.figures_ok out

(* Every per-layer kernel.  Returns the metrics and whether the figure
   pass reproduced its digest. *)
let kernels inp =
  let m = ref [] in
  let put name v = m := (name, v) :: !m in
  let build name f =
    put ("dataset.build_ms." ^ name)
      (median_ms ~name:("dataset.build." ^ name) ~rounds:3 (fun () ->
           Datasets.Cache.clear ();
           ignore (f ())))
  in
  build "submarine" (fun () -> Datasets.Cache.submarine ());
  build "intertubes" (fun () -> Datasets.Cache.intertubes ());
  build "itu" (fun () -> Datasets.Cache.itu ~scale:0.3 ());
  let figures_ok =
    figures
      ~context:(fun f ->
        let ctx, s = Trace.with_span "figures.context" f in
        put "figures.context_ms" (Trace.dur_ns s /. 1e6);
        ctx)
      ~render:(fun f ->
        let out, s = Trace.with_span "figures.render" f in
        put "figures.render_ms" (Trace.dur_ns s /. 1e6);
        out)
  in
  Datasets.Cache.clear ();
  prime inp;
  let n = Array.length inp.hit_reqs in
  let parsed = Array.map parse_req inp.hit_reqs in
  let hit_body = (response_of (dispatch inp inp.hit_reqs.(0))).Http.body in
  put "http.parse_ns"
    (per_op ~name:"http.parse" ~rounds:11 ~ops:500 (fun i ->
         ignore (parse_req inp.hit_reqs.(i mod n))));
  let resp = with_trace_header (Http.response ~status:200 hit_body) in
  put "http.serialize_ns"
    (per_op ~name:"http.serialize" ~rounds:11 ~ops:1000 (fun _ ->
         ignore (Http.to_string ~close:false resp)));
  let bodies = Array.map (fun (r : Http.request) -> r.body) parsed in
  let decode b =
    Api.params_of_body ~base:Api.sim_defaults ~of_json:Api.sim_of_json b
  in
  put "api.decode_ns"
    (per_op ~name:"api.decode" ~rounds:11 ~ops:1000 (fun i -> ignore (decode bodies.(i mod n))));
  put "api.key_ns"
    (per_op ~name:"api.key" ~rounds:11 ~ops:1000 (fun i ->
         ignore (Api.sim_key inp.hit_params.(i mod n))));
  let keys = Array.map Api.sim_key inp.hit_params in
  let no_compute () = Error "not cached" in
  put "cache.lookup_ns"
    (per_op ~name:"cache.lookup" ~rounds:11 ~ops:1000 (fun i ->
         ignore (Api.with_cache ~key:keys.(i mod n) no_compute)));
  put "router.dispatch_hit_ns"
    (per_op ~name:"router.dispatch_hit" ~rounds:11 ~ops:1000 (fun i ->
         ignore (Router.dispatch ~routes:inp.routes parsed.(i mod n))));
  (* Inserts into a full cache: every one evicts. *)
  let fill = Array.init 1024 (Printf.sprintf "bench-fill|%d") in
  Array.iter (fun k -> ignore (Api.with_cache ~key:k (fun () -> Ok hit_body))) fill;
  let fresh = Array.init (11 * 1000) (Printf.sprintf "bench-insert|%d") in
  let next_fresh = ref 0 in
  put "cache.insert_ns"
    (per_op ~name:"cache.insert" ~rounds:11 ~ops:1000 (fun _ ->
         let k = fresh.(!next_fresh) in
         incr next_fresh;
         ignore (Api.with_cache ~key:k (fun () -> Ok hit_body))));
  (* The six miss models, plans compiled as the server memoizes them. *)
  let warm = Array.map Check.decode_simulate Workload.miss_warm_bodies in
  let network = Datasets.Cache.submarine () in
  let plans =
    Array.map
      (fun (p : Api.sim_params) ->
        Stormsim.Plan.compile ~spacing_km:p.spacing_km ~network ~model:p.model ())
      warm
  in
  let nm = Array.length warm in
  let body_ns =
    per_op ~name:"api.simulate_body" ~rounds:11 ~ops:60 (fun i ->
        ignore (Api.simulate_body warm.(i mod nm)))
  in
  let run_ns =
    per_op ~name:"mc.run_plan" ~rounds:11 ~ops:60 (fun i ->
        ignore
          (Stormsim.Montecarlo.run_plan ~trials:1 ~jobs:1 ~seed:warm.(i mod nm).seed
             plans.(i mod nm)))
  in
  put "api.encode_us" ((body_ns -. run_ns) /. 1e3);
  put "plan.compile_us"
    (per_op ~name:"plan.compile" ~rounds:5 ~ops:nm (fun i ->
         let p = warm.(i) in
         ignore (Stormsim.Plan.compile ~spacing_km:p.spacing_km ~network ~model:p.model ()))
    /. 1e3);
  let plan = plans.(1) in
  let cables = Stormsim.Plan.nb_cables plan in
  let dead = Stormsim.Deadset.create cables in
  let rng = Rng.create 7 in
  put "plan.sample_ns_per_cable"
    (per_op ~name:"plan.sample" ~rounds:11 ~ops:2000 (fun _ ->
         Stormsim.Plan.sample_into plan rng dead)
    /. float_of_int cables);
  put "mc.trial_us"
    (per_op ~name:"mc.run_plan_100" ~rounds:5 ~ops:nm (fun i ->
         ignore (Stormsim.Montecarlo.run_plan ~trials:100 ~jobs:1 ~seed:i plans.(i)))
    /. 100e3);
  let axes =
    match Api.params_of_body ~base:[] ~of_json:(fun _ j -> Api.sweep_axes_of_json j)
            (parse_req inp.sweep_req).Http.body
    with
    | Ok axes -> axes
    | Error e -> failwith e
  in
  put "sweep.expand_us"
    (per_op ~name:"sweep.expand" ~rounds:11 ~ops:200 (fun _ ->
         ignore (Stormsim.Sweep.expand axes))
    /. 1e3);
  (* The first row is a child span of the run that closes at the first
     emit, while the run goes on. *)
  let first_row = Stats.samples () in
  let rows = ref [] in
  put "sweep.run_ms"
    (median_ms ~name:"sweep.run" ~rounds:9 (fun () ->
         let t0 = Monotonic_clock.now () in
         rows := [];
         ignore
           (Stormsim.Sweep.run ~jobs:1 ~cells:inp.sweep_cells ()
              ~emit:(fun row ->
                if !rows = [] then begin
                  let parent = (List.hd !Trace.stack).Trace.id in
                  let s = Trace.record ~parent "sweep.first_row" t0 (Monotonic_clock.now ()) in
                  Stats.push first_row (Trace.dur_ns s)
                end;
                rows := row :: !rows))));
  put "sweep.first_row_ms" (Stats.quantile (Stats.sorted_of_samples [ first_row ]) 0.5 /. 1e6);
  let rows = Array.of_list (List.rev !rows) in
  let nr = Array.length rows in
  put "sweep.row_line_us"
    (per_op ~name:"sweep.row_line" ~rounds:11 ~ops:nr (fun i ->
         ignore (Stormsim.Sweep.row_line rows.(i)))
    /. 1e3);
  let line = Stormsim.Sweep.row_line rows.(0) in
  put "http.chunk_ns"
    (per_op ~name:"http.chunk" ~rounds:11 ~ops:2000 (fun _ -> ignore (Http.chunk line)));
  put "exec.parallel_for_us"
    (per_op ~name:"exec.parallel_for" ~rounds:11 ~ops:200 (fun _ ->
         Exec.parallel_for ~jobs:2 ~n:16 (fun ~lo:_ ~hi:_ -> ()))
    /. 1e3);
  prime inp;
  put "obs.overhead_pct.dispatch"
    (obs_overhead ~name:"router.dispatch_hit" ~rounds:7 ~ops:1000 (fun i ->
         ignore (Router.dispatch ~routes:inp.routes parsed.(i mod n))));
  put "obs.overhead_pct.run_plan"
    (obs_overhead ~name:"mc.run_plan" ~rounds:7 ~ops:5 (fun i ->
         ignore (Stormsim.Montecarlo.run_plan ~trials:200 ~jobs:1 ~seed:i plan)));
  put "obs.overhead_pct.sweep"
    (obs_overhead ~name:"sweep.run" ~rounds:7 ~ops:3 (fun _ ->
         ignore (Stormsim.Sweep.run ~jobs:1 ~cells:inp.sweep_cells ~emit:ignore ())));
  (List.rev !m, figures_ok)

(* Replays whole requests of [workload], each under a root span with one
   child span per layer call, and returns the median over requests of
   the layers' summed time in ns: what the program spends in-process,
   without sockets, scheduling or process start. *)
let chain inp (workload : Workload.t) =
  let layers_ns root =
    List.fold_left
      (fun acc (s : Trace.span) -> if s.parent = root.Trace.id then acc +. Trace.dur_ns s else acc)
      0.0 !Trace.spans
  in
  let replay k one =
    Stats.median
      (Array.init k (fun i -> layers_ns (snd (Trace.with_span ~req:i "request" (fun () -> one i)))))
  in
  let fixed raw =
    let req = Trace.with_ "http.parse" (fun () -> parse_req raw) in
    let resp =
      Trace.with_ "router.dispatch" (fun () ->
          response_of (Router.dispatch ~routes:inp.routes req))
    in
    Trace.with_ "http.serialize" (fun () ->
        ignore (Http.to_string ~close:false (with_trace_header resp)))
  in
  match workload with
  | Serve_hit ->
      prime inp;
      replay 512 (fun i -> fixed inp.hit_reqs.(i mod Array.length inp.hit_reqs))
  | Serve_miss ->
      Array.iter (fun b -> ignore (dispatch inp (Workload.post "/simulate" b)))
        Workload.miss_warm_bodies;
      replay 32 (fun i -> fixed (Workload.post "/simulate" inp.miss_bodies.(i)))
  | Serve_sweep ->
      replay 10 (fun _ ->
          let req = Trace.with_ "http.parse" (fun () -> parse_req inp.sweep_req) in
          match Trace.with_ "router.dispatch" (fun () -> Router.dispatch ~routes:inp.routes req) with
          | Router.Response _ -> failwith "replay: /sweep did not stream"
          | Router.Stream s ->
              Trace.with_ "sweep.stream" (fun () ->
                  ignore
                    (Http.stream_head ~content_type:s.Router.s_content_type
                       ~headers:s.Router.s_headers ~status:s.Router.s_status ~close:false ());
                  s.Router.s_body (fun payload ->
                      Trace.with_ "http.chunk" (fun () -> ignore (Http.chunk payload)))))
  | Cli_batch ->
      replay 1 (fun _ ->
          ignore
            (figures
               ~context:(fun f -> Trace.with_ "figures.context" f)
               ~render:(fun f -> Trace.with_ "figures.render" f));
          Datasets.Cache.clear ();
          let cells =
            Trace.with_ "sweep.expand" (fun () -> Check.cli_sweep_cells inp.seed)
          in
          Trace.with_ "sweep.run" (fun () ->
              ignore
                (Stormsim.Sweep.run ~jobs:2 ~cells ()
                   ~emit:(fun row ->
                     Trace.with_ "sweep.row_line" (fun () ->
                         ignore (Stormsim.Sweep.row_line row))))))
