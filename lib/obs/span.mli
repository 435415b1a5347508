(** Span tracing: nested begin/end events against an injectable clock.

    [with_ ~name f] wraps [f] in a span.  When the layer is disabled the
    wrapper is a single branch around [f]; when enabled it pushes a
    [Begin] and an [End] event (the latter even if [f] raises) into a
    bounded ring buffer.  Events carry the nesting depth at the time the
    span opened, so exporters can reconstruct the parent/child tree.

    Rings are {e per-domain}: every domain that opens a span gets its own
    single-writer ring (cached in domain-local storage), so [with_]
    records from inside {!Exec.parallel_for} workers without locks on
    the hot path.  Each event carries the recording domain's id —
    exporters use it as the thread id ({!Export.chrome_trace}) and
    {!summarize} pairs events per domain.  Rings of exited worker
    domains are pooled and reused by later domains, bounding memory by
    the peak number of concurrent domains while keeping their recorded
    events readable until overwritten.

    [events]/[summarize]/[dropped] must be called while no worker domain
    is recording (i.e. outside any [Exec.parallel_for] section — the
    pool joins all domains per call, so "after the run" is always safe).

    Top-level spans on the main domain additionally sample the
    {!Resource} gauges at both boundaries. *)

type phase = Begin | End

type event = {
  name : string;
  phase : phase;
  t_ns : int64;
  depth : int;
  domain : int;
  trace : string;  (** trace context captured when the span opened; [""] = none *)
}

val set_clock : Clock.t -> unit
(** Install the clock used to stamp events (default {!Clock.monotonic}).
    Shared by every domain — inject single-domain fakes only in
    single-domain tests. *)

val now : unit -> int64
(** Read the installed clock. *)

val with_trace : string -> (unit -> 'a) -> 'a
(** [with_trace id f] runs [f] with [id] as the {e calling domain's}
    trace context, restoring the previous context afterwards (even on
    raise).  The context is domain-local, so N worker domains can each
    serve a different request under a different id concurrently without
    interfering.  Spawned domains start with no context: a spawner that
    wants the id to follow must capture {!current_trace} and re-install
    it in the child — {!Exec.parallel_for} does, which is how a request
    id set by the service reaches [exec.worker]/[plan.chunk] spans.  Works
    whether or not the span layer is enabled, so {!Log} lines pick the
    id up even when tracing is off. *)

val current_trace : unit -> string
(** The calling domain's active trace context ([""] when none). *)

val with_ : name:string -> (unit -> 'a) -> 'a

val events : unit -> event list
(** Retained events from every domain's ring, merged and sorted by
    timestamp (stable, so same-ring order survives clock ties).  Each
    ring keeps the newest [capacity] events it recorded (see
    [dropped]). *)

val dropped : unit -> int
(** Total events lost to ring wraps, summed over every ring. *)

val set_capacity : int -> unit
(** Resize every ring (discards retained events).  Default 65536 events
    per domain.  @raise Invalid_argument if the capacity is not
    positive. *)

val reset : unit -> unit
(** Drop all retained events and reset every ring's nesting depth. *)

type summary = { span_name : string; calls : int; total_ns : int64 }

val summarize : event list -> summary list
(** Per-name call counts and total inclusive time, from pairing matching
    [Begin]/[End] events with one stack per domain; sorted by name.
    Unpaired events (still-open spans, or spans whose [Begin] was lost
    to a ring wrap) are ignored and never corrupt other pairings. *)
