(** Loopback load generator behind [solarstorm loadgen] and the
    [serve.throughput] bench kernel.

    Hammers a live server with [connections] keep-alive connections
    (one domain each; a single connection runs inline), keeping up to
    [pipeline] requests in flight per connection, and times every
    request individually — send-to-response-complete, reads strictly in
    pipeline order.  Requests are written and replies read with {!Http},
    the server's own codec; this module is only the driver.  Quantiles
    over the collected latencies are exact (every request is a sample),
    the ground truth against which the server's bucket-interpolated
    [server.request.ms] estimates can be judged. *)

type target = { host : string; port : int; path : string }

val parse_url : string -> (target, string) result
(** Accepts [http://HOST:PORT] and [http://HOST:PORT/PATH] only — this
    drives lab servers, not the open web.  [HOST] is a name or an
    address ({!Http.connect}). *)

type result = {
  requests : int;  (** completed with a 2xx response and measured *)
  warmup : int;  (** completed with a 2xx response but excluded as warmup *)
  errors : int;  (** forfeited: connect/protocol failures or non-2xx *)
  elapsed_s : float;  (** wall time for the whole run, warmup included *)
  latencies_ns : float array;  (** sorted; one sample per measured request *)
  ttfb_ns : float array;
      (** sorted; send-to-first-body-bytes per measured request.  For a
          chunked response this is the first decoded chunk — the first
          streamed row of a [/sweep]; for fixed-length responses it
          tracks total latency (head and body arrive together). *)
  bytes : int;  (** response body bytes received, measured requests only *)
  chunks : int;
      (** chunked-transfer chunks received, measured requests only (0
          when every response was fixed-length) *)
}

val run :
  ?connections:int ->
  ?pipeline:int ->
  ?warmup:int ->
  requests:int ->
  body:string option ->
  target ->
  result
(** [run ~requests ~body target] spreads [requests] evenly over
    [connections] (default 1, clamped to [requests]).  [body = Some b]
    sends [POST] with [b] (JSON content type); [None] sends [GET].
    Responses may be fixed-length or [Transfer-Encoding: chunked]
    (streaming endpoints like [/sweep]): chunked bodies are decoded
    in-line, counted per chunk, and timed to the first chunk.
    Each connection first drives [warmup] (default 0) extra requests
    whose latencies/bytes are discarded — connection setup and cold
    caches land there, not in the quantiles.  An error on a connection
    forfeits that connection's remaining requests (counted in [errors])
    without aborting the others.
    @raise Invalid_argument on non-positive parameters ([warmup] may be
    0). *)

val req_per_s : result -> float

val quantile_exact : float array -> float -> float
(** Linear-interpolated quantile over sorted samples.
    @raise Invalid_argument on an empty array or [q] outside [0, 1]. *)

val to_bench_json : result -> string
(** The run as a [solarstorm-bench/1] document (mode ["loadgen"]):
    latency mean/p50/p95/p99, first-row latency as
    [loadgen.ttfb-p50]/[loadgen.ttfb-p95], plus throughput as an
    inverse-rate [loadgen.ns-per-request] kernel ([ns_per_run] =
    nanoseconds), and request/error/chunk/elapsed/req-per-s figures
    under ["metrics"] — wall time and achieved rate are recorded in
    both places so throughput trajectories need no post-processing. *)

val summary : result -> string
(** One human-readable line (req/s and millisecond quantiles; TTFB p50
    and chunk count appear when any response streamed). *)
