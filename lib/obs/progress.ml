(* Live progress for long trial loops.  Independent of the metrics/span
   switch: [--progress] turns it on without dragging the rest of the obs
   layer along.  Disabled cost is one branch per call.

   Runs are handles, not process state: [start] returns a [run] that the
   driver threads to whatever domain ticks it.  Two concurrent
   [run_trials_par] calls (e.g. two server worker domains each running a
   plan) therefore own independent meters — a second [start] can never
   clobber an unfinished run, which it silently did when the current run
   lived in one process-wide atomic.  Each run's counter is an [Atomic]
   shared by every worker domain ticking it; rendering is throttled by a
   CAS on the run's last-render timestamp so at most one domain paints a
   given interval, and output goes to an injectable sink (stderr by
   default) so stdout stays byte-identical with the meter on. *)

let flag = Atomic.make false
let enable () = Atomic.set flag true
let disable () = Atomic.set flag false

let clock = ref Clock.monotonic
let set_clock c = clock := c

(* A carriage-return meter painted into a pipe or a log file is just
   noise (and, under `solarstorm serve`, interleaves with request logs),
   so the default sink drops everything unless stderr is a terminal.
   The probe is evaluated once, on the first write; the memo is an
   [Atomic] because the first writes can race in from several ticking
   domains (the probe is idempotent, so concurrent initialisation is
   benign — but a plain [ref] read/written across domains was a data
   race).  Injected sinks ([set_sink]) are never gated — the injector
   knows where the bytes go. *)
let tty_sink ~isatty write =
  let known = Atomic.make None in
  fun s ->
    let tty =
      match Atomic.get known with
      | Some b -> b
      | None ->
          let b = isatty () in
          Atomic.set known (Some b);
          b
    in
    if tty then write s

let default_sink =
  tty_sink
    ~isatty:(fun () -> Unix.isatty Unix.stderr)
    (fun s ->
      output_string stderr s;
      flush stderr)

let sink = ref default_sink
let set_sink f = sink := f

(* Repaint at most five times a second. *)
let interval_ns = 200_000_000L

type run = {
  label : string;
  total : int;
  live : bool; (* meter enabled when the run started *)
  completed : int Atomic.t;
  start_ns : int64;
  last_render : int64 Atomic.t;
}

let completed r = Atomic.get r.completed

let render ~final r =
  let done_ = Atomic.get r.completed in
  let elapsed_s = Int64.to_float (Int64.sub (!clock ()) r.start_ns) /. 1e9 in
  let rate = if elapsed_s > 0.0 then float_of_int done_ /. elapsed_s else 0.0 in
  let eta_s = if rate > 0.0 then float_of_int (r.total - done_) /. rate else 0.0 in
  let pct = 100.0 *. float_of_int done_ /. float_of_int (Int.max 1 r.total) in
  let line =
    Printf.sprintf "\r%s %d/%d (%.0f%%)  %.0f trials/s  ETA %.1fs " r.label done_
      r.total pct rate eta_s
  in
  !sink (if final then line ^ "\n" else line)

let start ~label ~total =
  let live = Atomic.get flag in
  {
    label;
    total;
    live;
    completed = Atomic.make 0;
    start_ns = (if live then !clock () else 0L);
    last_render = Atomic.make 0L;
  }

let tick ?(n = 1) r =
  if r.live then begin
    ignore (Atomic.fetch_and_add r.completed n);
    let now = !clock () in
    let last = Atomic.get r.last_render in
    if
      Int64.compare (Int64.sub now last) interval_ns >= 0
      && Atomic.compare_and_set r.last_render last now
    then render ~final:false r
  end

let finish r = if r.live then render ~final:true r
