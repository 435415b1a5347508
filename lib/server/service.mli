(** The long-running simulation service: worker-owned socket loops,
    backpressure and graceful shutdown behind [solarstorm serve].

    Concurrency model (DESIGN.md §8): [workers] identical loops, the
    calling domain running worker 0, share one non-blocking listen
    socket.  Each loop selects over the listener and its own
    connections, accepts at most one newcomer per pass, and serves one
    request on each ready connection per pass.  A connection stays with
    the worker that accepted it until it closes: that worker parses,
    dispatches and writes every request on it, so no request crosses
    domains.  A worker busy with a request is not selecting, so new
    connections go to idle workers; a keep-alive connection's next
    request, though, waits behind its own worker's long [/sweep].

    Requests on different workers run genuinely in parallel, so
    everything they touch is domain-safe: the result cache takes one
    lock per operation ({!Lru} via {!Api}), plan/dataset memos are
    single-flight mutexes, metrics are sharded atomics, and the trace
    context is domain-local.  Responses are byte-identical to the
    single-worker path for any worker count — simulation draws are
    per-request state, exactly as {!Stormsim.Plan.run_trials_par}
    proves per-trial.

    Backpressure: open connections are capped at [max_pending], one
    count shared by every worker; past it, a new connection is answered
    [503 Service Unavailable] at once and closed.  An [accept] that
    fails for want of descriptors is logged ([http.accept.failed] at
    warn level) and retried after [idle_poll_s]; the server keeps
    serving.  Silent keep-alive connections are closed after 30 s.

    A server is a value: {!create} binds and listens, {!run} serves
    until {!stop}.  Each [t] owns its listener, its stop flag, its
    trace-id stream and its {!Monitor}, so servers in one process stop,
    alert and number their requests independently.  The metrics
    registry and the result cache stay process-wide.

    Shutdown: {!stop} (or SIGINT/SIGTERM via {!install_signal_handlers})
    makes every worker finish the request in hand and stop accepting;
    each connection may then send one more request within a grace
    period, answered with [Connection: close], before the rest are
    closed.  {!run} joins every worker and returns — the CLI then exits
    0. *)

type config = {
  host : string;  (** bind name or address, default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral (the OS picks; see {!port}) *)
  workers : int;
      (** worker domains serving requests; [0] (default) =
          {!Exec.default_jobs} — i.e. [--jobs]/[SOLARSTORM_JOBS], else 1 *)
  max_pending : int;
      (** connections held at once across all workers, 1..960; over → 503 *)
  max_body : int;  (** body byte cap (413 over it) *)
  read_timeout_s : float;  (** per-read stall budget (408 past it) *)
  idle_poll_s : float;  (** readiness-poll tick; bounds stop latency *)
  drain_grace_s : float;  (** budget for serving in-flight requests on stop *)
  log : string -> unit;  (** service log lines (default: stdout) *)
  trace_seed : int option;
      (** seed for per-request trace ids: [Some s] makes the n-th
          request's id identical across runs (tests, CI); [None]
          (default) seeds from wall clock ⊕ pid at {!create} time.  Each
          server draws its own stream, under a lock, each time a worker
          serves a ready connection (a peer's hang-up included), so ids
          stay deterministic for any worker count when requests arrive
          sequentially *)
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
    @raise Invalid_argument when [max_pending] is outside 1..960:
    [Unix.select] watches descriptors below 1024 only, and 64 are kept
    for what else the process holds.
    @raise Failure naming [host] when it does not resolve.
    @raise Unix.Unix_error when the bind/listen itself fails (address
    in use, permission) on every address, with the last address's
    error. *)

val port : t -> int
(** The bound port — the one the OS picked when [config.port = 0]. *)

val run : t -> unit
(** Run worker 0 on the calling domain and spawn [workers − 1] more
    (plus the self-monitoring sampler domain unless
    [sampler_step_s = 0]); serve until {!stop}, drain, join every
    spawned domain and close the listener.  A server runs once.  Also
    ignores SIGPIPE for the process, so writing to a disconnected peer
    surfaces as [EPIPE] instead of a kill.  Per-worker activity lands
    on the [server.worker.<i>.requests] counters and
    [server.worker.<i>.busy_ms] gauges (surfaced by [/statusz]); the
    worker count is on the [server.workers] gauge. *)

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
