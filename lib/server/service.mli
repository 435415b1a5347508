(** The long-running simulation service: acceptor + worker-pool socket
    loops, backpressure and graceful shutdown behind [solarstorm serve].

    Concurrency model (DESIGN.md §8): one {e acceptor} loop on the
    calling domain owns the listen socket and every idle connection; a
    pool of [workers] {e worker domains} owns requests.  The acceptor
    selects for readiness and hands each parse-ready connection — plus a
    trace id drawn before handoff — to the pool over a job queue; the
    receiving worker parses, dispatches and writes the response
    end-to-end, then returns the connection through a completion queue
    (self-pipe wakeup).  A connection is owned by exactly one domain at
    any moment.  One request per handoff keeps round-robin fairness: a
    pipelining client re-queues behind everyone else after each
    response.

    Requests on different workers run genuinely in parallel, so
    everything they touch is domain-safe: the result cache is
    lock-striped ({!Lru.Sharded} via {!Api}), plan/dataset memos are
    single-flight mutexes, metrics are sharded atomics, and the trace
    context is domain-local.  Responses are byte-identical to the
    single-worker path for any worker count — simulation draws are
    per-request state, exactly as {!Stormsim.Plan.run_trials_par}
    proves per-trial.

    Backpressure: accepted connections are capped at [max_pending]
    (idle + in flight); past it, a new connection is answered [503
    Service Unavailable] at once and closed.  Every queued job is one of
    those connections, so the job queue needs no bound of its own.
    Silent keep-alive connections are closed after 30 s.

    A server is a value: {!create} binds and listens, {!run} serves
    until {!stop}.  Each [t] owns its listener, its stop flag, its
    trace-id stream and its {!Monitor}, so servers in one process stop,
    alert and number their requests independently.  The metrics
    registry and the result cache stay process-wide.

    Shutdown: {!stop} (or SIGINT/SIGTERM via {!install_signal_handlers})
    makes the acceptor stop accepting, serve in-flight and
    already-readable work for a grace period with [Connection: close],
    then park every worker (shutdown sentinels queue FIFO behind
    remaining jobs, so accepted work is answered), join them and
    return — the CLI then exits 0. *)

type config = {
  host : string;  (** bind name or address, default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral (the OS picks; see {!port}) *)
  workers : int;
      (** worker domains serving requests; [0] (default) =
          {!Exec.default_jobs} — i.e. [--jobs]/[SOLARSTORM_JOBS], else 1 *)
  max_pending : int;  (** connections held at once (idle + in flight); over → 503 *)
  max_body : int;  (** body byte cap (413 over it) *)
  read_timeout_s : float;  (** per-read stall budget (408 past it) *)
  idle_poll_s : float;  (** readiness-poll tick; bounds stop latency *)
  drain_grace_s : float;  (** budget for serving in-flight requests on stop *)
  log : string -> unit;  (** service log lines (default: stdout) *)
  trace_seed : int option;
      (** seed for per-request trace ids: [Some s] makes the n-th
          request's id identical across runs (tests, CI); [None]
          (default) seeds from wall clock ⊕ pid at {!create} time.  Each
          server draws its own stream, in handoff order on its
          acceptor, so ids stay deterministic for any worker count when
          requests arrive sequentially *)
  sampler_step_s : float;
      (** self-monitoring sampling step (default 1 s): a dedicated
          sampler domain freezes a metrics snapshot into the server's
          {!Monitor} ring and evaluates SLO rules every step.  [0]
          disables the sampler ([/varz] still samples on scrape) *)
  slo_rules : Obs.Alerts.rule list;
      (** burn-rate alert rules evaluated each sampler step (the CLI
          parses [--slo] strings with {!Obs.Alerts.parse_rule}) *)
  retention : int;  (** ring slots kept for windowed queries (default 600) *)
}

val default_config : config

type t
(** One bound server. *)

val create : config -> t
(** Bind and listen on [host:port], and make the server's stop flag,
    trace-id stream and {!Monitor} (from [sampler_step_s], [retention]
    and [slo_rules]).  [host] is a name or an address, resolved by
    {!Http.resolve}; the server listens on the first of its addresses
    that binds.  Clients may connect at once; they are served when
    {!run} starts.
    @raise Failure naming [host] when it does not resolve.
    @raise Unix.Unix_error when the bind/listen itself fails (address
    in use, permission) on every address, with the last address's
    error. *)

val port : t -> int
(** The bound port — the one the OS picked when [config.port = 0]. *)

val run : t -> unit
(** Spawn the worker pool (plus the self-monitoring sampler domain
    unless [sampler_step_s = 0]), serve until {!stop}, join every
    spawned domain and close the listener.  A server runs once.  Also
    ignores SIGPIPE for the process, so writing to a disconnected peer
    surfaces as [EPIPE] instead of a kill.  Per-worker activity lands
    on the [server.worker.<i>.requests] counters and
    [server.worker.<i>.busy_ms] gauges (surfaced by [/statusz]); the
    pool size is on the [server.workers] gauge. *)

val stop : t -> unit
(** Ask this server's {!run} to drain and return; other servers keep
    serving.  Safe to call from a signal handler or another domain, and
    before {!run} (which then returns at once); takes effect within
    [idle_poll_s]. *)

val install_signal_handlers : t -> unit
(** Route SIGINT and SIGTERM to [stop t]. *)

val write_stream :
  Unix.file_descr -> trace:string -> close:bool -> Router.stream -> bool * int
(** [write_stream fd ~trace ~close s] answers one request with the
    stream [s] on [fd], as a worker does: [X-Trace-Id: trace] is added
    to the head and the status is counted on [server.resp.*] up front.
    The bytes go out under {!Http.respond_stream}'s write policy — head
    with the first row, then one write per flush point (for [/sweep],
    one per trial batch), one per 64 KiB of rows in between, and the
    terminal chunk — so a 256-row sweep of four
    batches costs about six writes, not 258.  Returns whether the stream
    completed (the connection may then be kept) and the payload bytes
    the producer emitted.  A failed write ends the stream at once —
    the producer's remaining work is abandoned — and is not an error.
    A producer exception writes what is buffered, without a terminal
    chunk, counts [server.stream.aborted] and logs [http.stream.aborted]
    at error level with the exception text; call it inside the
    request's trace context ({!Obs.Span.with_trace}), as the worker
    does, so that line carries the request's id. *)
