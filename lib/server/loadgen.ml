(* Loopback load generator: N keep-alive connections, each pushing a
   window of pipelined requests at the server and timing every response.

   Per connection the driver keeps up to [pipeline] requests in flight:
   send timestamps queue up FIFO, responses are read strictly in order
   (HTTP/1.1 pipelining), and a request's latency is the gap between
   writing its bytes and finishing the read of its response.  Requests
   are written and replies read through {!Http}, the codec the server
   itself runs; this module is only the driver.  Each
   connection runs on its own domain, matching the repo's Domain-based
   concurrency idiom; the last connection runs inline so the common
   [connections = 1] case (the bench kernel) spawns nothing.

   Results aggregate into exact quantiles over the individual request
   latencies — unlike the server's histogram this samples every request,
   so it is the ground truth the bucket-interpolated estimates are
   judged against. *)

type target = { host : string; port : int; path : string }

let parse_url url =
  let fail () =
    Error (Printf.sprintf "cannot parse %S (expected http://HOST:PORT[/PATH])" url)
  in
  match
    if String.length url >= 7 && String.sub url 0 7 = "http://" then
      Some (String.sub url 7 (String.length url - 7))
    else None
  with
  | None -> fail ()
  | Some rest ->
      let hostport, path =
        match String.index_opt rest '/' with
        | None -> (rest, "/")
        | Some i ->
            (String.sub rest 0 i, String.sub rest i (String.length rest - i))
      in
      (match String.index_opt hostport ':' with
      | None -> fail ()
      | Some i -> (
          let host = String.sub hostport 0 i in
          let port_s = String.sub hostport (i + 1) (String.length hostport - i - 1) in
          match int_of_string_opt port_s with
          | Some port when port > 0 && port < 65536 && host <> "" ->
              Ok { host; port; path }
          | _ -> fail ()))

type result = {
  requests : int;  (* completed OK and measured (warmup excluded) *)
  warmup : int;  (* completed OK but excluded as per-connection warmup *)
  errors : int;
  elapsed_s : float;
  latencies_ns : float array;  (* sorted ascending, one per measured request *)
  ttfb_ns : float array;  (* sorted; send-to-first-body-bytes, same requests *)
  bytes : int;  (* response body bytes received, measured requests only *)
  chunks : int;  (* chunked-transfer chunks received, measured requests only *)
}

let req_per_s r = if r.elapsed_s > 0.0 then float_of_int r.requests /. r.elapsed_s else 0.0

(* Exact quantile over sorted samples (nearest-rank with interpolation,
   the "linear" convention). *)
let quantile_exact sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Loadgen.quantile_exact: no samples";
  if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
    invalid_arg "Loadgen.quantile_exact: q outside [0, 1]";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = Int.min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  sorted.(lo) +. ((sorted.(hi) -. sorted.(lo)) *. frac)

let request_bytes ~target ~body =
  let meth, headers, body =
    match body with
    | None -> (Http.GET, [], "")
    | Some b -> (Http.POST, [ ("content-type", "application/json") ], b)
  in
  Http.request_to_string
    {
      Http.meth;
      target = target.path;
      version = "HTTP/1.1";
      headers = ("host", target.host ^ ":" ^ string_of_int target.port) :: headers;
      body;
    }

(* No cap on a reply: a /sweep body grows with its grid. *)
let limits = { Http.default_limits with max_body = max_int }

(* One reply off the connection: (status, body length, chunk count,
   first-body timestamp).  The chunk count is 0 for a fixed-length
   reply; the timestamp is taken when the first chunk of a chunked reply
   has been decoded (= the first streamed row for /sweep), or at body
   completion for a fixed reply, where head and body arrive as one burst
   anyway.  Raises [Failure] on anything but a well-formed reply. *)
let read_reply conn =
  let ok = function Ok v -> v | Error _ -> failwith "malformed reply" in
  match ok (Http.read_response ~limits conn) with
  | r, `Fixed -> (r.Http.status, String.length r.Http.body, 0, Obs.Span.now ())
  | r, `Chunked ->
      let rec chunks n len t_first =
        match ok (Http.read_chunk ~limits conn) with
        | None -> (r.Http.status, len, n, if n = 0 then Obs.Span.now () else t_first)
        | Some data ->
            let t_first = if n = 0 then Obs.Span.now () else t_first in
            chunks (n + 1) (len + String.length data) t_first
      in
      chunks 0 0 0L

(* One connection's tally, merged across connections by [run]. *)
type part = {
  p_latencies : float list;
  p_ttfbs : float list;
  p_measured : int;
  p_warm : int;
  p_errors : int;
  p_bytes : int;
  p_chunks : int;
}

(* One connection's share of the run.  Latencies are reported in send
   order; an error (connect failure, protocol surprise, non-2xx) stops
   this connection and forfeits its remaining requests.  The first
   [warmup] completions are driven and validated like any other but kept
   out of latencies/bytes — connection setup, first-touch allocation and
   cold caches land there, not in the quantiles. *)
let drive_connection ~target ~pipeline ~request ~warmup ~n =
  let latencies = ref [] and ttfbs = ref [] in
  let completed = ref 0 and errors = ref 0 and bytes = ref 0 and chunks = ref 0 in
  (try
     let fd =
       match Http.connect ~host:target.host ~port:target.port with
       | Ok fd -> fd
       | Error e -> failwith e
     in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
       (fun () ->
         (* No read deadline: one /sweep batch can outlast any budget. *)
         let conn = Http.conn_of_fd ~timeout_s:(-1.0) fd in
         let sent = ref 0 and sent_at = Queue.create () in
         let send_one () =
           Queue.push (Obs.Span.now ()) sent_at;
           Http.write_all fd request;
           incr sent
         in
         let receive_one () =
           let status, len, nchunks, t_first = read_reply conn in
           let t0 = Queue.pop sent_at in
           if status >= 200 && status < 300 then begin
             incr completed;
             if !completed > warmup then begin
               latencies :=
                 Int64.to_float (Int64.sub (Obs.Span.now ()) t0) :: !latencies;
               ttfbs := Int64.to_float (Int64.sub t_first t0) :: !ttfbs;
               bytes := !bytes + len;
               chunks := !chunks + nchunks
             end
           end
           else failwith (Printf.sprintf "HTTP %d" status)
         in
         while !completed + !errors < n do
           while !sent < n && !sent - !completed < pipeline do
             send_one ()
           done;
           receive_one ()
         done)
   with _ -> errors := n - !completed);
  {
    p_latencies = !latencies;
    p_ttfbs = !ttfbs;
    p_measured = Int.max 0 (!completed - warmup);
    p_warm = Int.min warmup !completed;
    p_errors = !errors;
    p_bytes = !bytes;
    p_chunks = !chunks;
  }

let run ?(connections = 1) ?(pipeline = 1) ?(warmup = 0) ~requests ~body target =
  if connections <= 0 then invalid_arg "Loadgen.run: connections <= 0";
  if pipeline <= 0 then invalid_arg "Loadgen.run: pipeline <= 0";
  if requests <= 0 then invalid_arg "Loadgen.run: requests <= 0";
  if warmup < 0 then invalid_arg "Loadgen.run: warmup < 0";
  let connections = Int.min connections requests in
  let request = request_bytes ~target ~body in
  (* Split the measured requests as evenly as possible; the first
     [requests mod connections] connections take one extra.  Warmup is
     per connection, on top of its share. *)
  let share i = (requests / connections) + if i < requests mod connections then 1 else 0 in
  let t_start = Obs.Span.now () in
  let worker i () = drive_connection ~target ~pipeline ~request ~warmup ~n:(share i + warmup) in
  let handles =
    List.init (connections - 1) (fun i -> Domain.spawn (worker i))
  in
  let last = worker (connections - 1) () in
  let parts = List.map Domain.join handles @ [ last ] in
  let elapsed_s = Int64.to_float (Int64.sub (Obs.Span.now ()) t_start) /. 1e9 in
  let sorted_of select =
    let a = List.concat_map select parts |> Array.of_list in
    Array.sort compare a;
    a
  in
  let sum select = List.fold_left (fun a p -> a + select p) 0 parts in
  {
    requests = sum (fun p -> p.p_measured);
    warmup = sum (fun p -> p.p_warm);
    errors = sum (fun p -> p.p_errors);
    elapsed_s;
    latencies_ns = sorted_of (fun p -> p.p_latencies);
    ttfb_ns = sorted_of (fun p -> p.p_ttfbs);
    bytes = sum (fun p -> p.p_bytes);
    chunks = sum (fun p -> p.p_chunks);
  }

(* Report as a solarstorm-bench/1 document so the existing bench tooling
   (and check.sh's schema gate) consumes loadgen output unchanged:
   latency quantiles are kernels (ns_per_run = that quantile), counts
   and rates are metrics. *)
let to_bench_json r =
  let open Obs.Json in
  let kernel name est v =
    Object
      [ ("name", String name); ("ns_per_run", Number v); ("estimator", String est) ]
  in
  let q p = quantile_exact r.latencies_ns p in
  let mean =
    Array.fold_left ( +. ) 0.0 r.latencies_ns
    /. float_of_int (Int.max 1 (Array.length r.latencies_ns))
  in
  let qt p = quantile_exact r.ttfb_ns p in
  let kernels =
    if Array.length r.latencies_ns = 0 then []
    else
      [
        kernel "loadgen.latency-mean" "mean" mean;
        kernel "loadgen.latency-p50" "exact-quantile" (q 0.5);
        kernel "loadgen.latency-p95" "exact-quantile" (q 0.95);
        kernel "loadgen.latency-p99" "exact-quantile" (q 0.99);
        (* First-row latency: time to the first body bytes.  For a
           chunked /sweep this is the first streamed row — the
           incremental-delivery figure; for fixed responses it tracks
           total latency (head and body arrive together). *)
        kernel "loadgen.ttfb-p50" "exact-quantile" (qt 0.5);
        kernel "loadgen.ttfb-p95" "exact-quantile" (qt 0.95);
        (* Throughput as a kernel (inverse rate: wall ns per completed
           request), so req/s trajectories ride the same baseline/gate
           tooling as every other kernel instead of needing
           post-processing of the metrics block. *)
        kernel "loadgen.ns-per-request" "wall-per-request"
          (r.elapsed_s *. 1e9 /. float_of_int (Int.max 1 r.requests));
      ]
  in
  to_string
    (Object
       [
         ("schema", String "solarstorm-bench/1");
         ("mode", String "loadgen");
         ("kernels", Array kernels);
         ( "metrics",
           Object
             [
               ("loadgen.requests", Number (float_of_int r.requests));
               ("loadgen.warmup", Number (float_of_int r.warmup));
               ("loadgen.errors", Number (float_of_int r.errors));
               ("loadgen.bytes", Number (float_of_int r.bytes));
               ("loadgen.chunks", Number (float_of_int r.chunks));
               ("loadgen.elapsed_s", Number r.elapsed_s);
               ("loadgen.req_per_s", Number (req_per_s r));
             ] );
       ])
  ^ "\n"

let summary r =
  if Array.length r.latencies_ns = 0 then
    Printf.sprintf "loadgen: %d/%d requests failed, nothing to report\n" r.errors
      (r.requests + r.errors)
  else
    let ms p = quantile_exact r.latencies_ns p /. 1e6 in
    Printf.sprintf
      "loadgen: %d requests in %.2fs (%.0f req/s), p50 %.2fms p95 %.2fms p99 %.2fms%s\n"
      r.requests r.elapsed_s (req_per_s r) (ms 0.5) (ms 0.95) (ms 0.99)
      ((if r.chunks > 0 then
          Printf.sprintf ", ttfb p50 %.2fms, %d chunks"
            (quantile_exact r.ttfb_ns 0.5 /. 1e6)
            r.chunks
        else "")
      ^ (if r.warmup > 0 then Printf.sprintf ", %d warmup excluded" r.warmup else "")
      ^ if r.errors > 0 then Printf.sprintf ", %d errors" r.errors else "")
