(* Leveled, structured JSONL logging.  Independent of the metrics/span
   switch (like [Progress]): [--log] turns it on without dragging the
   rest of the obs layer along, and the disabled cost is one
   [Atomic.get] branch per call site.

   One line per event:

     {"ts_ns":N,"level":"info","event":"http.access","trace":"…",…fields}

   The clock and sink are injectable (tests pin both); the default sink
   is stderr so stdout stays byte-identical with logging on.  When a
   span trace context is set ({!Span.with_trace}) the line carries it as
   a "trace" field automatically, so every log written while serving a
   request correlates with that request's spans and X-Trace-Id. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let flag = Atomic.make false
let enable () = Atomic.set flag true
let disable () = Atomic.set flag false

let min_rank = Atomic.make 0 (* Debug: emit everything once enabled *)
let set_level l = Atomic.set min_rank (rank l)

let clock = ref Clock.monotonic
let set_clock c = clock := c

let default_sink s =
  output_string stderr s;
  flush stderr

(* The sink is called under a mutex: the service's worker loop is the
   only writer today, but log calls from worker domains (or tests
   reading an injected buffer) must never interleave half-lines. *)
let sink = ref default_sink
let set_sink f = sink := f
let sink_lock = Mutex.create ()

(* Integral field values print as plain integers ("status":200, not
   200.0) — friendlier to eyeballs and to naive grep, still JSON. *)
let render_value = function
  | Json.Number v when Float.is_finite v && Float.is_integer v && Float.abs v < 1e15 ->
      Printf.sprintf "%.0f" v
  | v -> Json.to_string v

let log level event fields =
  if Atomic.get flag && rank level >= Atomic.get min_rank then begin
    let buf = Buffer.create 160 in
    Buffer.add_string buf (Printf.sprintf "{\"ts_ns\":%Ld" (!clock ()));
    Buffer.add_string buf
      (Printf.sprintf ",\"level\":\"%s\",\"event\":\"%s\"" (level_to_string level)
         (Json.escape event));
    (match Span.current_trace () with
    | "" -> ()
    | trace -> Buffer.add_string buf (Printf.sprintf ",\"trace\":\"%s\"" (Json.escape trace)));
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf ",\"%s\":%s" (Json.escape k) (render_value v)))
      fields;
    Buffer.add_string buf "}\n";
    let line = Buffer.contents buf in
    Mutex.lock sink_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock sink_lock) (fun () -> !sink line)
  end

let debug event fields = log Debug event fields
let info event fields = log Info event fields
let warn event fields = log Warn event fields
let error event fields = log Error event fields
