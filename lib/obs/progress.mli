(** Live progress meter for Monte-Carlo trial loops.

    Switched on by the [--progress] CLI flag (or {!enable}); independent
    of the metrics/span layer, off by default, and a single branch per
    {!tick} while disabled — trial loops call {!tick} unconditionally.

    Runs are handles: a driver calls [start ~label ~total], threads the
    returned {!run} to whichever domains complete work, ticks it per
    finished batch, and [finish]es it.  [Plan.run_trials_par] runs a
    ["trials"] meter ticked per chunk, and [Sweep.run] a ["sweep"] meter
    ticked per emitted row — a [/simulate] request or a CLI [simulate]
    is a one-cell sweep, so it runs both.
    Because a run is not process state, concurrent drivers (e.g. two
    server worker domains each running a plan) own independent meters
    and cannot clobber each other.  Rendering — ["label done/total
    (pct)  rate trials/s  ETA s"], carriage-return style — goes to the
    sink (stderr by default) at most once per interval; a CAS on the
    run's last-render timestamp keeps concurrent domains from painting
    over each other. *)

val enable : unit -> unit

val disable : unit -> unit

type run
(** A live meter for one driver invocation.  Safe to tick from any
    domain; the completed counter is an atomic shared by all of them. *)

val start : label:string -> total:int -> run
(** Begin a run of [total] work items.  Whether the meter is live is
    latched from the {!enable}/{!disable} flag at this point, so a run
    started while the flag is off stays silent even if the flag is
    flipped later. *)

val tick : ?n:int -> run -> unit
(** [tick ?n run] records [n] (default 1) finished work items and
    occasionally repaints the meter. *)

val finish : run -> unit
(** Paint the final state (with a newline). *)

val completed : run -> int
(** Items ticked so far on this run. *)

val set_sink : (string -> unit) -> unit
(** Redirect rendered lines.  The default sink writes + flushes to
    stderr {e only when stderr is a terminal} — under a pipe, a log file
    or [solarstorm serve] the meter is suppressed so it never interleaves
    with captured output.  Injected sinks are never gated. *)

val tty_sink : isatty:(unit -> bool) -> (string -> unit) -> string -> unit
(** [tty_sink ~isatty write] is a sink that forwards to [write] when
    [isatty ()] holds and drops everything otherwise.  The probe runs
    once, on the first write, and its memo is an [Atomic] — first writes
    can race in from several ticking domains (the default sink is
    [tty_sink ~isatty:(fun () -> Unix.isatty Unix.stderr) ...]);
    exposed so tests can inject a deterministic probe. *)

val set_clock : Clock.t -> unit
(** Clock used for rate/ETA and render throttling (default
    {!Clock.monotonic}). *)

val set_interval_ns : int64 -> unit
(** Minimum nanoseconds between repaints (default 2×10⁸ = 5 Hz; 0 =
    repaint on every tick).  @raise Invalid_argument if negative. *)
