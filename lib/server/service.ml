(* Acceptor + worker-pool serving loop.

   The calling domain is the ACCEPTOR: it owns the listen socket and
   every idle connection, selects for readiness, and hands each
   parse-ready connection — together with a pre-drawn trace id — to a
   pool of WORKER domains over a job queue.  A worker owns the
   connection end-to-end for one request (parse, dispatch, write), then
   returns it through a completion queue and wakes the acceptor via a
   self-pipe.  Ownership is strict: a connection is
   touched by exactly one domain at any moment, so the HTTP conn buffer
   needs no lock.

   Every iteration of the acceptor:

     1. select() over the listen socket, the wake pipe and every idle
        connection;
     2. drain the completion queue — closed connections die, kept ones
        with buffered pipelined bytes are re-handed immediately, the
        rest rejoin the idle set;
     3. accept everything waiting, 503-ing the overflow past
        [max_pending] (idle + in flight);
     4. hand off readable idle connections — one request per handoff,
        so a pipelining client cannot starve the rest — and reap those
        idle past [idle_timeout_s].

   Backpressure is the pending cap alone: every queued job is a
   connection counted against [max_pending], so the job queue can never
   hold more than the cap and needs no bound of its own.  The loop
   re-checks the stop flag each tick, so SIGINT/SIGTERM latency
   is bounded by [idle_poll_s] plus the requests in flight. *)

type config = {
  host : string;
  port : int;
  workers : int;
  max_pending : int;
  max_body : int;
  read_timeout_s : float;
  idle_poll_s : float;
  drain_grace_s : float;
  log : string -> unit;
  trace_seed : int option;
  sampler_step_s : float;
  slo_rules : Obs.Alerts.rule list;
  retention : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    workers = 0;
    max_pending = 64;
    max_body = Http.default_limits.Http.max_body;
    read_timeout_s = 5.0;
    idle_poll_s = 0.25;
    drain_grace_s = 2.0;
    log = (fun s -> print_string s; flush stdout);
    trace_seed = None;
    sampler_step_s = 1.0;
    slo_rules = [];
    retention = 600;
  }

(* Silent keep-alive connections are closed after this long. *)
let idle_timeout_s = 30.0

let m_requests = Obs.Metrics.counter "server.requests"
let m_accepted = Obs.Metrics.counter "server.conns.accepted"
let m_busy = Obs.Metrics.counter "server.rejected.busy"
let m_2xx = Obs.Metrics.counter "server.resp.2xx"
let m_4xx = Obs.Metrics.counter "server.resp.4xx"
let m_5xx = Obs.Metrics.counter "server.resp.5xx"
let g_pending = Obs.Metrics.gauge "server.pending"
let g_workers = Obs.Metrics.gauge "server.workers"

(* Sub-millisecond buckets matter here: cached hits answer in tens of
   microseconds, and with 1.0 as the lowest bound nearly every request
   landed in one bucket, flattening the interpolated p50/p95 into
   noise. *)
let h_request_ms =
  Obs.Metrics.histogram "server.request.ms"
    ~buckets:[| 0.05; 0.25; 0.5; 1.0; 5.0; 25.0; 100.0; 500.0; 2000.0; 10000.0 |]

let count_status status =
  Obs.Metrics.incr
    (if status >= 500 then m_5xx else if status >= 400 then m_4xx else m_2xx)

type client = { fd : Unix.file_descr; conn : Http.conn; mutable last_active : float }

(* Per-worker observability: [server.worker.<i>.requests] counts the
   requests worker [i] parsed successfully (the same increment point as
   [server.requests], so the per-worker counters sum to the total) and
   [server.worker.<i>.busy_ms] gauges its cumulative time spent on
   jobs.  [busy_ms] itself is worker-private state. *)
type worker_slot = {
  w_requests : Obs.Metrics.counter;
  w_busy : Obs.Metrics.gauge;
  mutable busy_ms : float;
}

let worker_slot i =
  {
    w_requests = Obs.Metrics.counter (Printf.sprintf "server.worker.%d.requests" i);
    w_busy = Obs.Metrics.gauge (Printf.sprintf "server.worker.%d.busy_ms" i);
    busy_ms = 0.0;
  }

(* A job is one connection, one request, one pre-drawn trace id.  [Stop]
   is the shutdown sentinel: pushed once per worker, FIFO behind any
   remaining jobs, so queued work is served before a worker parks. *)
type job =
  | Job of { c : client; trace : string; force_close : bool }
  | Stop

let send_response fd ~close resp =
  count_status resp.Http.status;
  match Http.write_all fd (Http.to_string ~close resp) with
  | () -> true
  | exception Unix.Unix_error (_, _, _) -> false

let close_client c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let m_stream_aborted = Obs.Metrics.counter "server.stream.aborted"

exception Peer_gone

(* The status is committed once the producer runs (the head leaves with
   its first payload), so it is counted up front; a later failure can
   only truncate the stream (no terminal chunk, connection closed), which
   the peer detects as a framing error, never a fresh head.  A peer that
   left is its own business; a producer that raised is a server failure
   and must not be silent. *)
let write_stream fd ~trace ~close (s : Router.stream) =
  count_status s.Router.s_status;
  let bytes = ref 0 in
  let write str =
    try Http.write_all fd str with Unix.Unix_error (_, _, _) -> raise_notrace Peer_gone
  in
  let completed =
    match
      Http.respond_stream ~content_type:s.Router.s_content_type
        ~headers:(("X-Trace-Id", trace) :: s.Router.s_headers)
        ~status:s.Router.s_status ~close ~write
        (fun emit ->
          s.Router.s_body (fun payload ->
              bytes := !bytes + String.length payload;
              emit payload))
    with
    | () -> true
    | exception Peer_gone -> false
    | exception exn ->
        Obs.Metrics.incr m_stream_aborted;
        Obs.Log.error "http.stream.aborted"
          [ ("error", Obs.Json.String (Printexc.to_string exn)) ];
        false
  in
  (completed, !bytes)

(* One access-log line per request ({!Obs.Log} is a no-op unless the
   serve CLI enabled it with [--log]).  Emitted inside the request's
   trace context, so the line carries the same id as the [X-Trace-Id]
   header and the request's spans. *)
let access_log ~meth ~path ~status ~bytes ~dur_ms ~cache =
  Obs.Log.info "http.access"
    [
      ("method", Obs.Json.String meth);
      ("path", Obs.Json.String path);
      ("status", Obs.Json.Number (float_of_int status));
      ("bytes", Obs.Json.Number (float_of_int bytes));
      ("dur_ms", Obs.Json.Number dur_ms);
      ( "cache",
        Obs.Json.String
          (match cache with Some `Hit -> "hit" | Some `Miss -> "miss" | None -> "-") );
    ]

(* Serve one request off a ready connection, on a worker domain.  The
   whole exchange — parse included — runs under the handed-off trace id,
   so even 4xx parse failures log with an id.  [force_close] is the
   drain path: whatever happens, the peer is told the connection is
   done. *)
let serve_one ~routes ~limits ~force_close ~trace ~slot c =
  Obs.Span.with_trace trace @@ fun () ->
  match Http.parse_request ~limits c.conn with
  | Error Http.Eof -> `Close
  | Error e ->
      let resp = Http.error_response e in
      access_log ~meth:"-" ~path:"-" ~status:resp.Http.status
        ~bytes:(String.length resp.Http.body) ~dur_ms:0.0 ~cache:None;
      ignore (send_response c.fd ~close:true resp);
      `Close
  | Ok req -> (
      Obs.Metrics.incr m_requests;
      Obs.Metrics.incr slot.w_requests;
      Obs.Span.with_ ~name:"server.request" @@ fun () ->
      let t0 = Obs.Span.now () in
      match Router.dispatch ~routes req with
      | Router.Response resp ->
          let dur_ms = Int64.to_float (Int64.sub (Obs.Span.now ()) t0) /. 1e6 in
          Obs.Metrics.observe h_request_ms dur_ms;
          (* Echo the id so a slow response can be chased into the trace
             ([--profile]) and the access log without any server-side
             lookup. *)
          let resp =
            {
              resp with
              Http.extra_headers = ("X-Trace-Id", trace) :: resp.Http.extra_headers;
            }
          in
          access_log ~meth:(Http.meth_to_string req.Http.meth) ~path:(Http.path req)
            ~status:resp.Http.status ~bytes:(String.length resp.Http.body) ~dur_ms
            ~cache:(Api.take_cache_outcome ());
          let close = force_close || Http.wants_close req in
          c.last_active <- Unix.gettimeofday ();
          if send_response c.fd ~close resp && not close then `Keep else `Close
      | Router.Stream s ->
          let close = force_close || Http.wants_close req in
          let completed, bytes = write_stream c.fd ~trace ~close s in
          let dur_ms = Int64.to_float (Int64.sub (Obs.Span.now ()) t0) /. 1e6 in
          Obs.Metrics.observe h_request_ms dur_ms;
          access_log ~meth:(Http.meth_to_string req.Http.meth) ~path:(Http.path req)
            ~status:s.Router.s_status ~bytes ~dur_ms
            ~cache:(Api.take_cache_outcome ());
          c.last_active <- Unix.gettimeofday ();
          if completed && not close then `Keep else `Close)

(* Wake the acceptor out of select() after pushing to the completion
   queue.  The pipe is non-blocking on both ends: a full pipe already
   guarantees a pending wakeup, so EAGAIN is success. *)
let wake fd =
  match Unix.write_substring fd "w" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

let drain_wake fd =
  let buf = Bytes.create 512 in
  let rec go () =
    match Unix.read fd buf 0 512 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let worker_loop ~routes ~limits ~slot ~work ~done_q ~wake_w () =
  let rec loop () =
    match Chan.pop work with
    | Stop -> ()
    | Job { c; trace; force_close } ->
        let t0 = Obs.Span.now () in
        let verdict = serve_one ~routes ~limits ~force_close ~trace ~slot c in
        slot.busy_ms <-
          slot.busy_ms +. (Int64.to_float (Int64.sub (Obs.Span.now ()) t0) /. 1e6);
        Obs.Metrics.set slot.w_busy slot.busy_ms;
        Chan.push done_q (c, verdict);
        wake wake_w;
        loop ()
  in
  loop ()

(* The self-monitoring sampler: its own domain ticking
   [Monitor.sample_now] every [step_s].  Sleeps in ≤50 ms slices so a
   SIGTERM parks it within one slice, not one step — a 30 s step must
   not add 30 s to shutdown. *)
let sampler_loop ~stopping ~monitor ~step_s () =
  let rec nap remaining =
    if remaining > 0.0 && not (Atomic.get stopping) then begin
      let slice = Float.min 0.05 remaining in
      (try Unix.sleepf slice with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      nap (remaining -. slice)
    end
  in
  let rec loop () =
    if not (Atomic.get stopping) then begin
      Monitor.sample_now monitor;
      nap step_s;
      loop ()
    end
  in
  loop ()

let busy_response =
  Http.response ~status:503 (Http.error_body "server busy: pending queue full")

let select_readable fds timeout =
  match Unix.select fds [] [] timeout with
  | ready, _, _ -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* One server: its bound listener, its stop flag, its trace-id stream
   and its monitor.  [trace_ids] is a plain [Rng.t] because ids are only
   drawn by the acceptor domain, BEFORE handoff — the id travels with
   the job and the worker installs it as its domain-local trace
   context. *)
type t = {
  cfg : config;
  lsock : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  trace_ids : Rng.t;
  monitor : Monitor.t;
}

(* A listener on the first of [host]'s addresses that binds; when none
   does, the last address's error. *)
let listen ~host ~port =
  let open_ ai =
    let fd = Unix.socket ~cloexec:true ai.Unix.ai_family ai.Unix.ai_socktype 0 in
    try
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd ai.Unix.ai_addr;
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd
    with e ->
      close_quietly fd;
      raise e
  in
  let rec bind_any = function
    | [] -> failwith (Printf.sprintf "cannot resolve host %S" host)
    | [ ai ] -> open_ ai
    | ai :: rest -> (
        match open_ ai with fd -> fd | exception Unix.Unix_error (_, _, _) -> bind_any rest)
  in
  bind_any (Http.resolve ~host ~port)

let create cfg =
  let lsock = listen ~host:cfg.host ~port:cfg.port in
  {
    cfg;
    lsock;
    port = (match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port);
    stopping = Atomic.make false;
    (* With [trace_seed] set the n-th handoff of every server gets the
       same id (reproducible tests and CI gates); otherwise the stream is
       seeded from wall clock ⊕ pid. *)
    trace_ids =
      Rng.create
        (match cfg.trace_seed with
        | Some seed -> seed
        | None -> int_of_float (Unix.gettimeofday () *. 1e6) lxor Unix.getpid ());
    monitor =
      Monitor.create ~step_s:cfg.sampler_step_s ~retention:cfg.retention
        ~rules:cfg.slo_rules ();
  }

let port t = t.port
let stop t = Atomic.set t.stopping true

let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

(* 16 hex chars per id; a raw draw, so [rng.draws] does not move. *)
let next_trace_id t = Printf.sprintf "%016Lx" (Rng.Raw.next_int64 t.trace_ids)

let run t =
  let cfg = t.cfg and lsock = t.lsock in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let limits = { Http.default_limits with max_body = cfg.max_body } in
  let routes = Handlers.routes () @ Handlers.monitor_routes t.monitor in
  let nworkers = if cfg.workers > 0 then cfg.workers else Exec.default_jobs () in
  let work : job Chan.t = Chan.create () in
  let done_q : (client * [ `Keep | `Close ]) Chan.t = Chan.create () in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let slots = Array.init nworkers worker_slot in
  Obs.Metrics.set g_workers (float_of_int nworkers);
  Fun.protect
    ~finally:(fun () ->
      close_quietly lsock;
      close_quietly wake_r;
      close_quietly wake_w)
    (fun () ->
      let domains =
        Array.map
          (fun slot -> Domain.spawn (worker_loop ~routes ~limits ~slot ~work ~done_q ~wake_w))
          slots
      in
      let sampler =
        if cfg.sampler_step_s > 0.0 then
          Some
            (Domain.spawn
               (sampler_loop ~stopping:t.stopping ~monitor:t.monitor
                  ~step_s:cfg.sampler_step_s))
        else None
      in
      let joined = ref false in
      let join_workers () =
        if not !joined then begin
          joined := true;
          for _ = 1 to nworkers do
            Chan.push work Stop
          done;
          Array.iter Domain.join domains;
          (* The sampler parks on the stop flag alone; raise it here so
             an exceptional unwind (flag still false) cannot hang the
             join. *)
          Atomic.set t.stopping true;
          Option.iter Domain.join sampler
        end
      in
      Fun.protect ~finally:join_workers @@ fun () ->
      cfg.log
        (Printf.sprintf "solarstorm serve: listening on http://%s:%d (%d workers)\n"
           cfg.host t.port nworkers);
      (* Acceptor state: [idle] connections are owned here; a handoff
         transfers ownership to a worker until the connection comes back
         through [done_q].  [in_flight] is only ever touched by this
         domain (incremented at handoff, decremented at collection), so
         a plain ref suffices. *)
      let idle = ref [] in
      let in_flight = ref 0 in
      let handoff ~force_close c =
        Chan.push work (Job { c; trace = next_trace_id t; force_close });
        incr in_flight
      in
      let collect ~draining () =
        let rec go () =
          match Chan.try_pop done_q with
          | None -> ()
          | Some (c, verdict) ->
              decr in_flight;
              (match verdict with
              | `Close -> close_client c
              | `Keep ->
                  if draining then close_client c
                  else if Http.buffered c.conn then
                    (* Pipelined bytes already parsed off the socket:
                       re-hand immediately, no select needed. *)
                    handoff ~force_close:false c
                  else begin
                    c.last_active <- Unix.gettimeofday ();
                    idle := !idle @ [ c ]
                  end);
              go ()
        in
        go ()
      in
      let rec accept_burst () =
        match Unix.accept ~cloexec:true lsock with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          -> ()
        | fd, _addr ->
            (* Nagle + the peer's delayed ACK can park a small pipelined
               response for ~40 ms; responses are written in one buffered
               burst, so there is nothing for Nagle to coalesce anyway.
               Unix-domain sockets reject the option — ignore that. *)
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error (_, _, _) -> ());
            if List.length !idle + !in_flight >= cfg.max_pending then begin
              Obs.Metrics.incr m_busy;
              ignore (send_response fd ~close:true busy_response);
              close_quietly fd;
              accept_burst ()
            end
            else begin
              Obs.Metrics.incr m_accepted;
              let c =
                {
                  fd;
                  conn = Http.conn_of_fd ~timeout_s:cfg.read_timeout_s fd;
                  last_active = Unix.gettimeofday ();
                }
              in
              idle := !idle @ [ c ];
              accept_burst ()
            end
      in
      while not (Atomic.get t.stopping) do
        Obs.Metrics.set g_pending (float_of_int (List.length !idle + !in_flight));
        let ready_fds =
          select_readable
            (lsock :: wake_r :: List.map (fun c -> c.fd) !idle)
            cfg.idle_poll_s
        in
        if List.mem wake_r ready_fds then drain_wake wake_r;
        collect ~draining:false ();
        if List.mem lsock ready_fds then accept_burst ();
        let now = Unix.gettimeofday () in
        idle :=
          List.filter
            (fun c ->
              if List.mem c.fd ready_fds then begin
                handoff ~force_close:false c;
                false
              end
              else if now -. c.last_active > idle_timeout_s then begin
                close_client c;
                false
              end
              else true)
            !idle
      done;
      cfg.log "solarstorm serve: draining\n";
      (* Serve what is in flight or already readable — every response
         now announces [Connection: close] — until everything is
         answered or the grace budget runs out.  Jobs still queued at
         the deadline are not abandoned: the Stop sentinels queue
         behind them, so workers finish them before parking. *)
      let deadline = Unix.gettimeofday () +. cfg.drain_grace_s in
      let rec drain_loop () =
        collect ~draining:true ();
        let now = Unix.gettimeofday () in
        if now < deadline && (!in_flight > 0 || !idle <> []) then begin
          let ready_fds =
            select_readable
              (wake_r :: List.map (fun c -> c.fd) !idle)
              (Float.min 0.05 (deadline -. now))
          in
          if List.mem wake_r ready_fds then drain_wake wake_r;
          collect ~draining:true ();
          idle :=
            List.filter
              (fun c ->
                if Http.buffered c.conn || List.mem c.fd ready_fds then begin
                  handoff ~force_close:true c;
                  false
                end
                else true)
              !idle;
          drain_loop ()
        end
      in
      drain_loop ();
      join_workers ();
      (* Workers are parked; anything they completed after the last
         collect is still in the queue, and unready idle connections
         just close. *)
      collect ~draining:true ();
      List.iter close_client !idle;
      idle := [];
      cfg.log "solarstorm serve: stopped\n")
