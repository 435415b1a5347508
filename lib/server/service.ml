(* Worker-owned connections.

   [run] starts [workers] identical serving loops, the calling domain
   running worker 0.  A connection stays with the worker that accepted
   it from accept to close: that worker alone reads, parses, dispatches
   and writes on it, so the HTTP conn buffer needs no lock and no
   request crosses domains.

   Every pass of a worker:

     1. select() over the shared non-blocking listen socket and the
        worker's own connections — without waiting when one of them
        already holds pipelined bytes;
     2. accept at most one newcomer, so a burst of connections spreads
        over the idle workers, and 503 it when [max_pending]
        connections are already open across all workers;
     3. serve one request on each connection that is readable or holds
        buffered bytes — one per connection per pass, so a pipelining
        client cannot starve the worker's other connections — and reap
        those idle past [idle_timeout_s].

   A worker busy with a request is not in select(), so it takes no
   newcomer: new connections go to idle workers.  The trade-off is
   within one worker: a keep-alive connection's next request waits
   behind its worker's long /sweep.  Each worker re-checks the stop flag
   every pass, so SIGINT/SIGTERM latency is bounded by [idle_poll_s]
   plus the request in hand. *)

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
   [server.worker.<i>.busy_ms] gauges its cumulative time spent serving
   requests.  [busy_ms] itself is worker-private state. *)
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

let send_response fd ~close resp =
  count_status resp.Http.status;
  match Http.write_all fd (Http.to_string ~close resp) with
  | () -> true
  | exception Unix.Unix_error (_, _, _) -> false

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

(* Serve one request off a ready connection.  The whole exchange —
   parse included — runs under the trace id drawn for it, so even 4xx
   parse failures log with an id.  [force_close] is the drain path:
   whatever happens, the peer is told the connection is done. *)
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
   and its monitor.  Every worker draws trace ids, so [trace_mu] guards
   the stream; every worker opens and closes connections, so the
   pending cap is one [open_conns] count that they all share. *)
type t = {
  cfg : config;
  lsock : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  trace_ids : Rng.t;
  trace_mu : Mutex.t;
  open_conns : int Atomic.t;
  monitor : Monitor.t;
}

(* A listener on the first of [host]'s addresses that binds; when none
   does, the last address's error.  The kernel queues up to [backlog]
   connections for accept and drops the SYNs of any more, which the
   peer retries only after a second or more. *)
let listen ~host ~port ~backlog =
  let open_ ai =
    let fd = Unix.socket ~cloexec:true ai.Unix.ai_family ai.Unix.ai_socktype 0 in
    try
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd ai.Unix.ai_addr;
      Unix.listen fd backlog;
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

(* [Unix.select] watches descriptors below FD_SETSIZE (1024) only, and
   every held connection is one.  The reserve covers the rest of what a
   server holds: stdio, the listener, a [--log] file, and a connection
   being refused with a 503. *)
let max_pending_limit = 1024 - 64

let create cfg =
  if cfg.max_pending < 1 || cfg.max_pending > max_pending_limit then
    invalid_arg
      (Printf.sprintf
         "max pending connections must be in 1..%d (select watches descriptors below \
          1024), got %d"
         max_pending_limit cfg.max_pending);
  (* A burst of up to [max_pending] connects waits in the kernel to be
     admitted or refused with a 503, rather than for a SYN retry. *)
  let lsock = listen ~host:cfg.host ~port:cfg.port ~backlog:(max 64 cfg.max_pending) in
  {
    cfg;
    lsock;
    port = (match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port);
    stopping = Atomic.make false;
    (* With [trace_seed] set the n-th request served by every server gets
       the same id (reproducible tests and CI gates); otherwise the
       stream is seeded from wall clock ⊕ pid. *)
    trace_ids =
      Rng.create
        (match cfg.trace_seed with
        | Some seed -> seed
        | None -> int_of_float (Unix.gettimeofday () *. 1e6) lxor Unix.getpid ());
    trace_mu = Mutex.create ();
    open_conns = Atomic.make 0;
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
let next_trace_id t =
  Printf.sprintf "%016Lx" (Mutex.protect t.trace_mu (fun () -> Rng.Raw.next_int64 t.trace_ids))

let release t c =
  close_quietly c.fd;
  Atomic.decr t.open_conns

(* Accept at most one connection onto [conns].  Any error but EAGAIN or
   EINTR (EMFILE when descriptors run out) means no newcomer this pass:
   it is logged, and the listener sits out this worker's selects until
   [rest_until], so a full descriptor table does not spin the loop. *)
let accept_one t ~conns ~rest_until =
  match Unix.accept ~cloexec:true t.lsock with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (err, _, _) ->
      Obs.Log.warn "http.accept.failed"
        [ ("error", Obs.Json.String (Unix.error_message err)) ];
      rest_until := Unix.gettimeofday () +. t.cfg.idle_poll_s
  | fd, _addr ->
      (* Nagle + the peer's delayed ACK can park a small pipelined
         response for ~40 ms; responses are written in one buffered
         burst, so there is nothing for Nagle to coalesce anyway.
         Unix-domain sockets reject the option — ignore that. *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error (_, _, _) -> ());
      if Atomic.fetch_and_add t.open_conns 1 >= t.cfg.max_pending then begin
        Atomic.decr t.open_conns;
        Obs.Metrics.incr m_busy;
        ignore (send_response fd ~close:true busy_response);
        close_quietly fd
      end
      else begin
        Obs.Metrics.incr m_accepted;
        let conn = Http.conn_of_fd ~timeout_s:t.cfg.read_timeout_s fd in
        conns := { fd; conn; last_active = Unix.gettimeofday () } :: !conns
      end

(* One serving loop: worker [slot] serves until {!stop}, runs [on_stop],
   then drains its own connections. *)
let worker_loop t ~routes ~limits ~slot ~on_stop () =
  let cfg = t.cfg in
  let conns = ref [] and rest_until = ref 0.0 in
  let poll ~listen timeout =
    let buffered = List.exists (fun c -> Http.buffered c.conn) !conns in
    select_readable
      ((if listen then [ t.lsock ] else []) @ List.map (fun c -> c.fd) !conns)
      (if buffered then 0.0 else timeout)
  in
  let is_ready ready c = Http.buffered c.conn || List.mem c.fd ready in
  (* One request off [c]; [false] once [c] is closed. *)
  let serve ~force_close c =
    let t0 = Obs.Span.now () in
    let verdict = serve_one ~routes ~limits ~force_close ~trace:(next_trace_id t) ~slot c in
    slot.busy_ms <- slot.busy_ms +. (Int64.to_float (Int64.sub (Obs.Span.now ()) t0) /. 1e6);
    Obs.Metrics.set slot.w_busy slot.busy_ms;
    match verdict with
    | `Keep -> true
    | `Close ->
        release t c;
        false
  in
  while not (Atomic.get t.stopping) do
    Obs.Metrics.set g_pending (float_of_int (Atomic.get t.open_conns));
    let ready = poll ~listen:(Unix.gettimeofday () >= !rest_until) cfg.idle_poll_s in
    if List.mem t.lsock ready then accept_one t ~conns ~rest_until;
    let now = Unix.gettimeofday () in
    conns :=
      List.filter
        (fun c ->
          if is_ready ready c then serve ~force_close:false c
          else if now -. c.last_active > idle_timeout_s then begin
            release t c;
            false
          end
          else true)
        !conns
  done;
  on_stop ();
  (* Accept nothing more: each connection may send one last request
     within the grace budget, answered with [Connection: close]; what is
     still silent at the deadline is closed. *)
  let deadline = Unix.gettimeofday () +. cfg.drain_grace_s in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if !conns <> [] && left > 0.0 then begin
      let ready = poll ~listen:false left in
      conns := List.filter (fun c -> not (is_ready ready c) || serve ~force_close:true c) !conns;
      drain ()
    end
  in
  drain ();
  List.iter (release t) !conns

let run t =
  let cfg = t.cfg in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let limits = { Http.default_limits with max_body = cfg.max_body } in
  let routes = Handlers.routes () @ Handlers.monitor_routes t.monitor in
  let nworkers = if cfg.workers > 0 then cfg.workers else Exec.default_jobs () in
  let slots = Array.init nworkers worker_slot in
  Obs.Metrics.set g_workers (float_of_int nworkers);
  Fun.protect ~finally:(fun () -> close_quietly t.lsock) @@ fun () ->
  let others =
    Array.map
      (fun slot -> Domain.spawn (worker_loop t ~routes ~limits ~slot ~on_stop:ignore))
      (Array.sub slots 1 (nworkers - 1))
  in
  let sampler =
    if cfg.sampler_step_s > 0.0 then
      Some
        (Domain.spawn
           (sampler_loop ~stopping:t.stopping ~monitor:t.monitor ~step_s:cfg.sampler_step_s))
    else None
  in
  Fun.protect
    ~finally:(fun () ->
      (* Worker 0 returns on the stop flag, or raises with the flag still
         down: raise it, so the other loops and the sampler end too. *)
      Atomic.set t.stopping true;
      Array.iter Domain.join others;
      Option.iter Domain.join sampler)
    (fun () ->
      cfg.log
        (Printf.sprintf "solarstorm serve: listening on http://%s:%d (%d workers)\n" cfg.host
           t.port nworkers);
      worker_loop t ~routes ~limits ~slot:slots.(0)
        ~on_stop:(fun () -> cfg.log "solarstorm serve: draining\n")
        ());
  cfg.log "solarstorm serve: stopped\n"
