(* Windowed self-monitoring over the cumulative metrics registry.

   The registry's counters and histograms only ever grow, which answers
   "how much since boot" but not "what is happening right now".  A
   [Timeseries.t] closes that gap without touching the hot mutation
   path: a sampler calls [sample] on a fixed step, each call freezing
   one {!Metrics.snapshot} into a ring of [retention] slots.  Every
   windowed figure is then derived at query time from the stored
   cumulative samples:

   - counters become per-step deltas (and deltas / step = rates);
   - histograms become per-step bucket deltas, which feed
     {!Metrics.quantile} for windowed p50/p95/p99;
   - gauges are read as stored.

   Deltas are clamped at zero so a counter reset (process restart
   behind a proxy, an explicit {!Metrics.reset}) reads as "nothing
   happened this step", never as a huge negative rate.  Window totals
   sum the clamped per-step deltas rather than subtracting endpoints,
   so one mid-window reset costs only the step it happened in.

   Domain-safety: the ring is written by the sampler domain and read by
   any worker domain answering /varz, so every ring access holds one
   mutex.  The lock guards slot bookkeeping only — snapshots themselves
   are immutable once stored. *)

type sample = { s_ts_ns : int64; s_snap : Metrics.snapshot }

type t = {
  step_ns : int64;
  retention : int;
  clock : Clock.t;
  ring : sample option array;
  mutable head : int; (* next write slot *)
  mutable count : int;
  lock : Mutex.t;
}

let create ?(clock = Clock.monotonic) ?(step_ns = 1_000_000_000L) ?(retention = 600) () =
  if Int64.compare step_ns 0L <= 0 then invalid_arg "Obs.Timeseries.create: step_ns <= 0";
  if retention < 2 then invalid_arg "Obs.Timeseries.create: retention < 2";
  {
    step_ns;
    retention;
    clock;
    ring = Array.make retention None;
    head = 0;
    count = 0;
    lock = Mutex.create ();
  }

let step_ns t = t.step_ns

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = locked t (fun () -> t.count)

let record t snap =
  let s = { s_ts_ns = t.clock (); s_snap = snap } in
  locked t @@ fun () ->
  t.ring.(t.head) <- Some s;
  t.head <- (t.head + 1) mod t.retention;
  if t.count < t.retention then t.count <- t.count + 1

let sample t = record t (Metrics.snapshot ())

(* Oldest-first copy of the stored samples, taken under the lock. *)
let all t =
  locked t @@ fun () ->
  List.init t.count (fun i ->
      match t.ring.((t.head - t.count + i + (2 * t.retention)) mod t.retention) with
      | Some s -> s
      | None -> assert false (* count never exceeds filled slots *))

let latest t =
  match List.rev (all t) with
  | [] -> None
  | s :: _ -> Some (s.s_ts_ns, s.s_snap)

(* The samples covering a window ending at the newest sample: everything
   newer than [newest - window] plus one baseline sample at or before
   the window edge (deltas need a "before" point).  With no baseline old
   enough, the oldest stored sample serves — the window is then simply
   shorter than asked, which /varz reports via its sample count. *)
let window_samples t ~window_ns =
  match List.rev (all t) with
  | [] -> []
  | newest :: _ as rev ->
      let edge = Int64.sub newest.s_ts_ns window_ns in
      let rec take acc = function
        | [] -> acc
        | s :: older ->
            if Int64.compare s.s_ts_ns edge > 0 then take (s :: acc) older
            else s :: acc (* the baseline: first sample at/past the edge *)
      in
      take [] rev

type point = { p_ts_ns : int64; p_v : float }

let counter_at snap name =
  match Metrics.find snap name with Some (Metrics.Counter n) -> Some n | _ -> None

let gauge_at snap name =
  match Metrics.find snap name with Some (Metrics.Gauge v) -> Some v | _ -> None

let histogram_at snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram { bounds; counts; _ }) -> Some (bounds, counts)
  | _ -> None

let clamp d = if d < 0 then 0 else d

(* Fold consecutive sample pairs oldest-first. *)
let fold_pairs samples f acc =
  match samples with
  | [] | [ _ ] -> acc
  | first :: rest ->
      let acc, _ =
        List.fold_left (fun (acc, prev) cur -> (f acc ~prev ~cur, cur)) (acc, first) rest
      in
      acc

let dt_s ~prev ~cur = Int64.to_float (Int64.sub cur.s_ts_ns prev.s_ts_ns) /. 1e9

let rate_series t ~window_ns name =
  fold_pairs (window_samples t ~window_ns)
    (fun acc ~prev ~cur ->
      match (counter_at prev.s_snap name, counter_at cur.s_snap name) with
      | Some a, Some b ->
          let dt = dt_s ~prev ~cur in
          if dt <= 0.0 then acc
          else { p_ts_ns = cur.s_ts_ns; p_v = float_of_int (clamp (b - a)) /. dt } :: acc
      | _ -> acc)
    []
  |> List.rev

let gauge_series t ~window_ns name =
  List.filter_map
    (fun s ->
      match gauge_at s.s_snap name with
      | Some v -> Some { p_ts_ns = s.s_ts_ns; p_v = v }
      | None -> None)
    (window_samples t ~window_ns)

let windowed_rate t ~window_ns name =
  let samples = window_samples t ~window_ns in
  match (samples, List.rev samples) with
  | first :: _ :: _, newest :: _ ->
      let span = dt_s ~prev:first ~cur:newest in
      if span <= 0.0 then None
      else
        let total =
          fold_pairs samples
            (fun acc ~prev ~cur ->
              match (counter_at prev.s_snap name, counter_at cur.s_snap name) with
              | Some a, Some b -> acc + clamp (b - a)
              | _ -> acc)
            0
        in
        if counter_at newest.s_snap name = None then None
        else Some (float_of_int total /. span)
  | _ -> None

(* Bucket deltas between two cumulative histogram snapshots, clamped
   per slot.  [None] when shapes disagree (a histogram re-registered
   with different buckets mid-run — not expected, but never crash a
   scrape over it). *)
let bucket_delta (a : Metrics.snapshot) (b : Metrics.snapshot) name =
  match (histogram_at a name, histogram_at b name) with
  | Some (bounds_a, counts_a), Some (bounds_b, counts_b)
    when bounds_a = bounds_b && Array.length counts_a = Array.length counts_b ->
      Some
        ( bounds_b,
          Array.init (Array.length counts_b) (fun i -> clamp (counts_b.(i) - counts_a.(i)))
        )
  | _ -> None

(* Windowed histogram view: per-step clamped bucket deltas accumulated
   over the whole window. *)
let windowed_buckets t ~window_ns name =
  let samples = window_samples t ~window_ns in
  fold_pairs samples
    (fun acc ~prev ~cur ->
      match bucket_delta prev.s_snap cur.s_snap name with
      | None -> acc
      | Some (bounds, deltas) -> (
          match acc with
          | None -> Some (bounds, deltas)
          | Some (bounds0, total) when bounds0 = bounds ->
              Array.iteri (fun i d -> total.(i) <- total.(i) + d) deltas;
              Some (bounds0, total)
          | Some _ -> acc))
    None

let windowed_quantile t ~window_ns ~q name =
  match windowed_buckets t ~window_ns name with
  | None -> None
  | Some (bounds, counts) -> Metrics.quantile ~bounds ~counts q

let windowed_count t ~window_ns name =
  match windowed_buckets t ~window_ns name with
  | None -> None
  | Some (_, counts) -> Some (Array.fold_left ( + ) 0 counts)

let quantile_series t ~window_ns ~q name =
  fold_pairs (window_samples t ~window_ns)
    (fun acc ~prev ~cur ->
      match bucket_delta prev.s_snap cur.s_snap name with
      | None -> acc
      | Some (bounds, counts) -> (
          match Metrics.quantile ~bounds ~counts q with
          | Some v -> { p_ts_ns = cur.s_ts_ns; p_v = v } :: acc
          | None -> acc))
    []
  |> List.rev
