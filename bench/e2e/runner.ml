(* One run of one workload against the binary under test: set up (timed
   several times), warm, measure for the run length, check every output,
   and — traced runs only — scrape the program's counters and replay the
   layers in-process. *)

open Server

let now = Monotonic_clock.now
let secs_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

type tally = { mutable attempted : int; mutable failed : int }

let count t ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* --- child processes --- *)

(* Every child not yet reaped, so an exception cannot leave one behind. *)
let children : int list ref = ref []

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, st ->
      children := List.filter (( <> ) pid) !children;
      st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
          try ignore (reap pid) with Unix.Unix_error (_, _, _) -> ())
        !children)

(* Peak resident set of a live process, in kB (0 once it has exited). *)
let vm_hwm_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  with
  | exception Sys_error _ -> 0
  | status ->
      List.find_map
        (fun line ->
          if String.starts_with ~prefix:"VmHWM:" line then
            Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d" Fun.id
          else None)
        (String.split_on_char '\n' status)
      |> Option.value ~default:0

type server = { pid : int; port : int; out : Unix.file_descr }

(* The server announces its ephemeral port on its first stdout line. *)
let read_line fd ~timeout_s =
  let line = Buffer.create 80 and b = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then failwith "server did not report its port"
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd b 0 1 with
          | 0 -> failwith "server exited before listening"
          | _ ->
              if Bytes.get b 0 = '\n' then Buffer.contents line
              else begin
                Buffer.add_bytes line b;
                go ()
              end)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let spawn_server bin =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: Workload.server_args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  children := pid :: !children;
  let line = read_line r ~timeout_s:60.0 in
  let port = Scanf.sscanf line "solarstorm serve: listening on http://%s@:%d" (fun _ p -> p) in
  { pid; port; out = r }

(* SIGTERM drains and exits 0; anything else is a failure. *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let st = reap s.pid in
  Unix.close s.out;
  st = Unix.WEXITED 0

type proc = {
  exited_ok : bool;
  out : string;
  err : string;
  wall_s : float;
  first_out_s : float;  (** spawn to the first stdout byte *)
  hwm_kb : int;
}

(* Run a CLI child to completion, draining both pipes and sampling its
   peak RSS (VmHWM only grows, so a late sample is a good one). *)
let run_proc ~env bin args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process_env bin (Array.of_list (bin :: args)) env Unix.stdin out_w err_w
  in
  Unix.close out_w;
  Unix.close err_w;
  children := pid :: !children;
  let out = Buffer.create 65536 and err = Buffer.create 1024 in
  let first = ref 0L and hwm = ref 0 in
  let chunk = Bytes.create 65536 in
  let rec pump fds =
    if fds <> [] then begin
      let ready =
        match Unix.select fds [] [] 0.01 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      hwm := Int.max !hwm (vm_hwm_kb pid);
      pump
        (List.filter
           (fun fd ->
             (not (List.mem fd ready))
             ||
             match Unix.read fd chunk 0 (Bytes.length chunk) with
             | 0 ->
                 Unix.close fd;
                 false
             | n ->
                 if fd = out_r && !first = 0L then first := now ();
                 Buffer.add_subbytes (if fd = out_r then out else err) chunk 0 n;
                 true
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
           fds)
    end
  in
  pump [ out_r; err_r ];
  let st = reap pid in
  let t1 = now () in
  let since t = if t = 0L then Float.nan else Int64.to_float (Int64.sub t t0) /. 1e9 in
  {
    exited_ok = st = Unix.WEXITED 0;
    out = Buffer.contents out;
    err = Buffer.contents err;
    wall_s = since t1;
    first_out_s = since !first;
    hwm_kb = !hwm;
  }

(* --- shared reporting --- *)

(* [n] timings of [once ()], each divided by the mean of the host
   slowdowns read just before and just after it. *)
let timed_at_reference_speed n once =
  let slowdown () = Hostspeed.slowdown ~readings:Workload.probe_readings () in
  let before = ref (slowdown ()) in
  Array.init n (fun _ ->
      let t = once () in
      let after = slowdown () in
      let scaled = t /. ((!before +. after) /. 2.0) in
      before := after;
      scaled)

(* Percentiles and rate over every sampled operation of the run, all
   times already at the reference host speed.  [measured_ns] is the
   time the operations took together, for the rate. *)
let e2e ~setup ~(latency_ns : Stats.samples) ~(ttfb_ns : Stats.samples) ~measured_ns
    ~(slowdowns : Stats.samples) ~hwm_kb =
  let latency = Stats.sorted_of_samples [ latency_ns ] in
  let ms sorted p = Stats.quantile sorted p /. 1e6 in
  [
    ("setup_s", Stats.median setup);
    ("latency_p50_ms", ms latency 0.5);
    ("latency_p99_ms", ms latency 0.99);
    ("ttfb_p50_ms", ms (Stats.sorted_of_samples [ ttfb_ns ]) 0.5);
    ( "throughput_ops",
      if latency_ns.len = 0 then Float.nan else float_of_int latency_ns.len /. (measured_ns /. 1e9) );
    ("peak_rss_mb", float_of_int hwm_kb /. 1024.0);
    ("host.slowdown", Stats.median (Array.sub slowdowns.data 0 slowdowns.len));
  ]

(* Layer kernels plus the residual of this workload's request chain
   against its end-to-end median. *)
let replay ~seed ~workload ~e2e ~prog ~trace_out =
  let p50_ns = 1e6 *. List.assoc "latency_p50_ms" e2e in
  let inp = Replay.inputs seed in
  let kernels, figures_ok = Replay.kernels inp in
  let chain_ns =
    (timed_at_reference_speed 1 (fun () -> Replay.chain inp workload)).(0)
  in
  Option.iter
    (fun path -> Out_channel.with_open_text path (fun oc -> output_string oc (Trace.chrome ())))
    trace_out;
  ( kernels @ prog
    @ [
        ("residual_pct", 100.0 *. (p50_ns -. chain_ns) /. p50_ns);
        ("latency_p99_ms", List.assoc "latency_p99_ms" e2e);
        ("host.slowdown", List.assoc "host.slowdown" e2e);
      ],
    figures_ok )

(* --- serve workloads --- *)

let scrape port =
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let r = Client.exchange c (Workload.get "/metrics") in
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> Hashtbl.replace tbl (String.sub line 0 i) v
            | None -> ())
        | None -> ())
    (String.split_on_char '\n' r.Client.body);
  tbl

(* Counters over the measured phase, from /metrics before and after. *)
let serve_prog ~before ~after ~wall_s =
  let d name =
    let get t = Option.value ~default:0.0 (Hashtbl.find_opt t name) in
    get after -. get before
  in
  (* The closing scrape is itself a request. *)
  let reqs = d "server_requests" -. 1.0 in
  let hits = d "server_cache_hits" and misses = d "server_cache_misses" in
  let workers =
    List.init Workload.workers (fun i -> d (Printf.sprintf "server_worker_%d_busy_ms" i))
  in
  [
    ("prog.cache_hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
    ("prog.plan_compiles_per_op", d "plan_compiles" /. reqs);
    ( "prog.busy_share",
      List.fold_left ( +. ) 0.0 workers /. (float_of_int (List.length workers) *. wall_s *. 1e3) );
    ("prog.rejected_busy", d "server_rejected_busy");
    ("prog.gc_minor_words_per_op", d "gc_minor_words" /. reqs);
  ]

let failed_exchange = function
  | End_of_file | Failure _ | Unix.Unix_error (_, _, _) -> true
  | _ -> false

let serve bin (workload : Workload.t) ~seed ~seconds ~trace ~trace_out =
  let tally = { attempted = 0; failed = 0 } in
  let default_body = Api.simulate_body Api.sim_defaults in
  (* Set-up: spawn to the first 200 on a default /simulate.  The last
     server stays up for the workload. *)
  let server = ref None in
  let setup_once () =
    Option.iter (fun s -> count tally (stop_server s)) !server;
    let t0 = now () in
    let s = spawn_server bin in
    server := Some s;
    let ok =
      match Client.connect s.port with
      | c ->
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          (try Check.exact default_body (Client.exchange c (Workload.post "/simulate" ""))
           with e when failed_exchange e -> false)
      | exception Unix.Unix_error (_, _, _) -> false
    in
    let dt = secs_since t0 in
    count tally ok;
    dt
  in
  let setup = timed_at_reference_speed Workload.setups setup_once in
  let server = Option.get !server in
  let cursor = ref (-1) in
  let take () =
    incr cursor;
    !cursor
  in
  let cycle reqs () =
    let i = take () in
    Some (i, reqs.(i mod Array.length reqs))
  in
  (* (warm-up exchanges, next, judge, keep, post-run check) *)
  let warm, next, judge, keep, post_check =
    match workload with
    | Serve_hit ->
        let bodies = Workload.hit_bodies seed in
        let reqs = Array.map (Workload.post "/simulate") bodies in
        let expected = Array.map Check.simulate bodies in
        ( Array.to_list (Array.mapi (fun i r -> (r, Check.exact expected.(i))) reqs),
          cycle reqs,
          (fun i -> Check.exact expected.(i mod Array.length expected)),
          (fun _ -> false),
          fun _ _ -> true )
    | Serve_miss ->
        let pool = Workload.miss_bodies seed in
        let reqs = Array.map (Workload.post "/simulate") pool in
        ( Array.to_list
            (Array.map
               (fun b -> (Workload.post "/simulate" b, Check.exact (Check.simulate b)))
               Workload.miss_warm_bodies),
          (fun () ->
            let i = take () in
            if i < Array.length reqs then Some (i, reqs.(i)) else None),
          (fun _ (r : Client.response) ->
            r.Client.status = 200 && Check.looks_like_simulate r.Client.body),
          Check.sampled,
          fun i body -> String.equal body (Check.simulate pool.(i)) )
    | Serve_sweep ->
        let bodies = Workload.sweep_bodies seed in
        let reqs = Array.map (Workload.post "/sweep") bodies in
        let expected =
          Array.map (fun b -> Check.sweep_stream ~jobs:1 (Check.sweep_cells b)) bodies
        in
        ( Array.to_list (Array.mapi (fun i r -> (r, Check.exact expected.(i))) reqs),
          cycle reqs,
          (fun i -> Check.exact expected.(i mod Array.length expected)),
          (fun _ -> false),
          fun _ _ -> true )
    | Cli_batch -> invalid_arg "Runner.serve: cli-batch is not a serve workload"
  in
  let c = Client.connect server.port in
  List.iter
    (fun (req, ok) ->
      count tally (try ok (Client.exchange c req) with e when failed_exchange e -> false))
    warm;
  Client.close c;
  let before = if trace then Some (scrape server.port) else None in
  let t_loop = now () in
  let r =
    Client.closed_loop ~port:server.port ~conns:Workload.connections ~warmup_s:1.0 ~seconds
      ~next ~judge ~keep
  in
  let wall_s = secs_since t_loop in
  let after = if trace then Some (scrape server.port) else None in
  let hwm_kb = vm_hwm_kb server.pid in
  count tally (stop_server server);
  tally.attempted <- tally.attempted + r.ok + r.failed;
  tally.failed <- tally.failed + r.failed;
  (* A kept reply was counted good; a mismatch turns it into a failure. *)
  List.iter (fun (i, body) -> if not (post_check i body) then tally.failed <- tally.failed + 1) r.kept;
  let e2e =
    e2e ~setup ~latency_ns:r.latency_ns ~ttfb_ns:r.ttfb_ns ~measured_ns:r.measured_ns
      ~slowdowns:r.slowdowns ~hwm_kb
  in
  let metrics, replay_ok =
    match (before, after) with
    | Some before, Some after ->
        replay ~seed ~workload ~e2e ~prog:(serve_prog ~before ~after ~wall_s) ~trace_out
    | _ -> (e2e, true)
  in
  if not replay_ok then count tally false;
  { correct = tally.failed = 0 && r.ok > 0; attempted = tally.attempted; failed = tally.failed; metrics }

(* --- cli-batch --- *)

let stderr_int ~prefix ~fmt err =
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then Scanf.sscanf_opt line fmt Fun.id else None)
    (String.split_on_char '\n' err)

let cli bin ~seed ~seconds ~trace ~trace_out =
  let tally = { attempted = 0; failed = 0 } in
  (* OCAMLRUNPARAM=v=0x400 makes each child print its GC totals to
     stderr at exit: the allocation count without turning Obs on. *)
  let env =
    let base =
      List.filter
        (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
        (Array.to_list (Unix.environment ()))
    in
    Array.of_list (if trace then "OCAMLRUNPARAM=v=0x400" :: base else base)
  in
  let setup_body =
    Api.simulate_body { Api.sim_defaults with Stormsim.Sweep.trials = 1 }
  in
  let setup =
    timed_at_reference_speed Workload.setups (fun () ->
        let p = run_proc ~env bin Workload.cli_setup_args in
        count tally (p.exited_ok && String.equal p.out setup_body);
        p.wall_s)
  in
  let expected_sweep = Check.sweep_stream ~jobs:2 (Check.cli_sweep_cells seed) in
  let sweep_args = Workload.cli_sweep_args seed in
  let iters = Stats.samples () and first_out = Stats.samples () and slowdowns = Stats.samples () in
  let compiles = ref 0 and minor_words = ref 0 and hwm_kb = ref 0 and n = ref 0 in
  let minor p = Option.value ~default:0 (stderr_int ~prefix:"minor_words:" ~fmt:"minor_words: %d" p.err) in
  (* Each child is timed between two host-speed probes and scaled by
     their mean reading. *)
  let probe () =
    let v = Hostspeed.slowdown ~readings:Workload.probe_readings () in
    Stats.push slowdowns v;
    v
  in
  let cpu0 = Unix.times () in
  let t0 = now () in
  let before = ref (probe ()) in
  let scale_since_last_probe () =
    let after = probe () in
    let scale = (!before +. after) /. 2.0 in
    before := after;
    scale
  in
  while !n = 0 || secs_since t0 < seconds do
    let f = run_proc ~env bin Workload.figures_args in
    let f_scale = scale_since_last_probe () in
    let s = run_proc ~env bin sweep_args in
    let s_scale = scale_since_last_probe () in
    count tally (f.exited_ok && Check.figures_ok f.out);
    count tally (s.exited_ok && String.equal s.out expected_sweep);
    Stats.push iters (((f.wall_s /. f_scale) +. (s.wall_s /. s_scale)) *. 1e9);
    (* The iteration's first output is the figure text, which figures
       prints once every figure is rendered. *)
    Stats.push first_out (f.first_out_s /. f_scale *. 1e9);
    compiles :=
      !compiles
      + Option.value ~default:0
          (stderr_int ~prefix:"sweep:" ~fmt:"sweep: %_d cells, %_d rows, %d plans compiled" s.err);
    minor_words := !minor_words + minor f + minor s;
    hwm_kb := Int.max !hwm_kb (Int.max f.hwm_kb s.hwm_kb);
    incr n
  done;
  let wall_s = secs_since t0 in
  let cpu1 = Unix.times () in
  let measured_ns = Array.fold_left ( +. ) 0.0 (Array.sub iters.data 0 iters.len) in
  let e2e =
    e2e ~setup ~latency_ns:iters ~ttfb_ns:first_out ~measured_ns ~slowdowns ~hwm_kb:!hwm_kb
  in
  let per_op v = float_of_int v /. float_of_int !n in
  let metrics, replay_ok =
    if trace then
      let child_cpu (t : Unix.process_times) = t.tms_cutime +. t.tms_cstime in
      replay ~seed ~workload:Cli_batch ~e2e
        ~prog:
          [
            ("prog.cache_hit_ratio", 0.0);
            ("prog.plan_compiles_per_op", per_op !compiles);
            ("prog.busy_share", (child_cpu cpu1 -. child_cpu cpu0) /. (2.0 *. wall_s));
            ("prog.rejected_busy", 0.0);
            ("prog.gc_minor_words_per_op", per_op !minor_words);
          ]
        ~trace_out
    else (e2e, true)
  in
  if not replay_ok then count tally false;
  { correct = tally.failed = 0; attempted = tally.attempted; failed = tally.failed; metrics }

let run ~bin (workload : Workload.t) ~seed ~seconds ~trace ~trace_out =
  Exec.set_default_jobs 1;
  match workload with
  | Cli_batch -> cli bin ~seed ~seconds ~trace ~trace_out
  | Serve_hit | Serve_miss | Serve_sweep -> serve bin workload ~seed ~seconds ~trace ~trace_out
