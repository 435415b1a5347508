(* Process resource gauges, fed from [Gc.quick_stat] (cheap: no heap
   walk) and the monotonic clock.  [sample] refreshes every gauge; it is
   called at snapshot time by the CLI/bench exporters and at top-level
   span boundaries by [Span.with_], so a profiled run's last sample
   brackets the work it measured. *)

let minor_words = Metrics.gauge "gc.minor_words"
let promoted_words = Metrics.gauge "gc.promoted_words"
let major_words = Metrics.gauge "gc.major_words"
let heap_words = Metrics.gauge "gc.heap_words"
let top_heap_words = Metrics.gauge "gc.top_heap_words"
let minor_collections = Metrics.gauge "gc.minor_collections"
let major_collections = Metrics.gauge "gc.major_collections"
let compactions = Metrics.gauge "gc.compactions"
let wall_ns = Metrics.gauge "proc.wall_ns"

(* Wall time is measured from library initialisation, which for any
   binary linking obs happens during startup — close enough to process
   start for a trajectory gauge. *)
let t0 = Clock.monotonic ()

let sample () =
  if Atomic.get Control.flag then begin
    let s = Gc.quick_stat () in
    Metrics.set minor_words s.Gc.minor_words;
    Metrics.set promoted_words s.Gc.promoted_words;
    Metrics.set major_words s.Gc.major_words;
    Metrics.set heap_words (float_of_int s.Gc.heap_words);
    Metrics.set top_heap_words (float_of_int s.Gc.top_heap_words);
    Metrics.set minor_collections (float_of_int s.Gc.minor_collections);
    Metrics.set major_collections (float_of_int s.Gc.major_collections);
    Metrics.set compactions (float_of_int s.Gc.compactions);
    Metrics.set wall_ns (Int64.to_float (Int64.sub (Clock.monotonic ()) t0))
  end
