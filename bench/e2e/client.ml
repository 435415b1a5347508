(* The load side: an HTTP/1.1 client over keep-alive loopback
   connections, and the closed loop that drives [Workload.connections]
   of them from one thread.  Unlike [Server.Loadgen] it keeps each
   response body, so every reply can be checked against the expected
   bytes.  Responses are decoded incrementally, so a single thread can
   poll every connection at once and stamp each reply when its bytes
   arrive — the load generator adds one runnable thread, not one per
   connection, to a machine the server shares. *)

let now = Monotonic_clock.now

type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable lo : int; mutable hi : int }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  (* Requests are written in one burst; Nagle would only add delay. *)
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let send c s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* One read into the buffer; raises [End_of_file] when the peer closed. *)
let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 b 0 c.hi;
    c.buf <- b
  end;
  let rec read () =
    match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
    | 0 -> raise End_of_file
    | n -> c.hi <- c.hi + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  read ()

let find c pat =
  let m = String.length pat in
  let rec matches i j = j = m || (Bytes.get c.buf (i + j) = pat.[j] && matches i (j + 1)) in
  let rec go i = if i + m > c.hi then None else if matches i 0 then Some i else go (i + 1) in
  go c.lo

type response = {
  status : int;
  body : string;  (** de-chunked *)
  first_ns : int64;  (** when the first body bytes were in hand *)
}

(* Where the decoder is within one response. *)
type stage = Head | Fixed of int | Size | Data of int | Trailer | Done

type reader = {
  mutable stage : stage;
  mutable status : int;
  body : Buffer.t;
  mutable first_ns : int64;
}

let reader () = { stage = Head; status = 0; body = Buffer.create 1024; first_ns = 0L }

let take c r n =
  Buffer.add_subbytes r.body c.buf c.lo n;
  c.lo <- c.lo + n;
  if r.first_ns = 0L then r.first_ns <- now ()

let head_of r head =
  let lines = List.map String.trim (String.split_on_char '\n' head) in
  (match String.split_on_char ' ' (List.hd lines) with
  | _ :: code :: _ when int_of_string_opt code <> None -> r.status <- int_of_string code
  | _ -> failwith "bad status line");
  let header name =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.lowercase_ascii (String.sub l 0 i) = name ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      (List.tl lines)
  in
  match (header "transfer-encoding", header "content-length") with
  | Some te, _ when String.lowercase_ascii te = "chunked" -> Size
  | _, Some len -> (
      match int_of_string_opt len with Some n when n >= 0 -> Fixed n | _ -> failwith "bad length")
  | _ -> failwith "no content-length"

(* Decode as far as the buffered bytes allow; [true] once the response
   is complete.  Raises [Failure] on a malformed response. *)
let rec step c r =
  match r.stage with
  | Done -> true
  | Head -> (
      match find c "\r\n\r\n" with
      | None -> false
      | Some i ->
          let head = Bytes.sub_string c.buf c.lo (i - c.lo) in
          c.lo <- i + 4;
          r.stage <- head_of r head;
          step c r)
  | Fixed n ->
      if c.hi - c.lo < n then false
      else begin
        take c r n;
        r.stage <- Done;
        true
      end
  | Size -> (
      match find c "\r\n" with
      | None -> false
      | Some i -> (
          let line = Bytes.sub_string c.buf c.lo (i - c.lo) in
          c.lo <- i + 2;
          let hex = List.hd (String.split_on_char ';' line) in
          match int_of_string_opt ("0x" ^ String.trim hex) with
          | Some 0 ->
              r.stage <- Trailer;
              step c r
          | Some n when n > 0 ->
              r.stage <- Data n;
              step c r
          | _ -> failwith "bad chunk size"))
  | Data n ->
      if c.hi - c.lo < n + 2 then false
      else begin
        if Bytes.sub_string c.buf (c.lo + n) 2 <> "\r\n" then failwith "bad chunk terminator";
        take c r n;
        c.lo <- c.lo + 2;
        r.stage <- Size;
        step c r
      end
  | Trailer ->
      if c.hi - c.lo < 2 then false
      else begin
        if Bytes.sub_string c.buf c.lo 2 <> "\r\n" then failwith "trailers are not supported";
        c.lo <- c.lo + 2;
        if r.first_ns = 0L then r.first_ns <- now ();
        r.stage <- Done;
        true
      end

let response_of r = { status = r.status; body = Buffer.contents r.body; first_ns = r.first_ns }

let exchange c req =
  send c req;
  let r = reader () in
  while not (step c r) do
    fill c
  done;
  response_of r

(* A closed-loop run, samples in completion order.  Every time is
   divided by the host slowdown ([Hostspeed]) measured around it. *)
type result = {
  ok : int;
  failed : int;
  kept : (int * string) list;  (** bodies kept for the post-run check *)
  latency_ns : Stats.samples;
  ttfb_ns : Stats.samples;
  measured_ns : float;  (** the measured phase, probes left out *)
  slowdowns : Stats.samples;  (** every probe's reading *)
}

type slot = { mutable conn : conn option; mutable inflight : (int * int64 * reader) option }

(* Drive [conns] connections until [warmup_s + seconds] have passed or
   [next] runs dry; replies that started during the first [warmup_s] are
   checked and counted but not sampled.  [next] hands out (request
   index, request bytes); [judge] decides whether a reply is correct;
   replies to indices [keep] selects are kept for a slower check after
   the run.  A failed exchange counts, and its connection is replaced.
   Every [Workload.probe_every_s] the loop lets the connections go idle
   and probes the host's speed; each stretch between two probes is
   divided by the mean of their readings. *)
let closed_loop ~port ~conns ~warmup_s ~seconds ~next ~judge ~keep =
  let ns s = Int64.of_float (s *. 1e9) in
  let measure_from = Int64.add (now ()) (ns warmup_s) in
  let deadline = Int64.add measure_from (ns seconds) in
  let ok = ref 0 and failed = ref 0 and kept = ref [] in
  (* Raw samples, each with the stretch it fell in; stretch [k] runs
     from probe [k] to probe [k + 1]. *)
  let latency = Stats.samples () and ttfb = Stats.samples () and stretch_of = Stats.samples () in
  let slowdowns = Stats.samples () and stretch_ns = Stats.samples () in
  let stretch_start = ref 0L and probe_at = ref 0L in
  let probe () =
    let t = now () in
    if slowdowns.len > 0 then
      Stats.push stretch_ns
        (Float.max 0.0 (Int64.to_float (Int64.sub t (Int64.max !stretch_start measure_from))));
    Stats.push slowdowns (Hostspeed.slowdown ());
    stretch_start := now ();
    probe_at := Int64.add !stretch_start (ns Workload.probe_every_s)
  in
  let reconnect () = try Some (connect port) with Unix.Unix_error (_, _, _) -> None in
  let slots = Array.init conns (fun _ -> { conn = reconnect (); inflight = None }) in
  let dry = ref false in
  let fail s =
    incr failed;
    Option.iter close s.conn;
    s.conn <- reconnect ();
    s.inflight <- None
  in
  let issue s =
    match s.conn with
    | Some c when s.inflight = None && (not !dry) && now () < Int64.min deadline !probe_at -> (
        match next () with
        | None -> dry := true
        | Some (i, req) -> (
            let t0 = now () in
            match send c req with
            | () -> s.inflight <- Some (i, t0, reader ())
            | exception Unix.Unix_error (_, _, _) -> fail s))
    | _ -> ()
  in
  let complete s i t0 r =
    let t1 = now () in
    s.inflight <- None;
    let resp = response_of r in
    if judge i resp then begin
      incr ok;
      if t0 >= measure_from then begin
        Stats.push latency (Int64.to_float (Int64.sub t1 t0));
        Stats.push ttfb (Int64.to_float (Int64.sub resp.first_ns t0));
        Stats.push stretch_of (float_of_int (slowdowns.len - 1))
      end;
      if keep i then kept := (i, resp.body) :: !kept
    end
    else incr failed
  in
  let rec loop () =
    let idle = Array.for_all (fun s -> s.inflight = None) slots in
    if idle && now () >= !probe_at && now () < deadline && not !dry then probe ();
    Array.iter issue slots;
    let busy =
      Array.to_list slots
      |> List.filter_map (fun s ->
             match (s.conn, s.inflight) with Some c, Some _ -> Some (c.fd, s) | _ -> None)
    in
    if busy <> [] then begin
      (* Poll, never sleep: a client that sleeps in [select] adds the
         wake-up of its own CPU to every latency.  On a 2-CPU virtual
         machine that wake-up was over a third of a serve-hit request
         (p50 81 vs 51 µs over ten alternating runs of each) and its
         noisiest part (spread of the p50 12% vs 8%). *)
      let ready =
        match Unix.select (List.map fst busy) [] [] 0.0 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      (* A reply that has not finished 30 s past the deadline never will. *)
      let stuck = ready = [] && now () > Int64.add deadline (ns 30.0) in
      List.iter
        (fun (fd, s) ->
          match (s.conn, s.inflight) with
          | Some c, Some (i, t0, r) when List.mem fd ready -> (
              match
                fill c;
                step c r
              with
              | true -> complete s i t0 r
              | false -> ()
              | exception (End_of_file | Failure _ | Unix.Unix_error (_, _, _)) -> fail s)
          | _ -> if stuck then fail s)
        busy;
      loop ()
    end
    else if now () < deadline && not !dry then loop ()
  in
  loop ();
  probe ();
  Array.iter (fun s -> Option.iter close s.conn) slots;
  let slowdown k = (slowdowns.data.(k) +. slowdowns.data.(k + 1)) /. 2.0 in
  let scaled (raw : Stats.samples) =
    let out = Stats.samples () in
    for j = 0 to raw.len - 1 do
      Stats.push out (raw.data.(j) /. slowdown (int_of_float stretch_of.data.(j)))
    done;
    out
  in
  let measured_ns = ref 0.0 in
  for k = 0 to stretch_ns.len - 1 do
    measured_ns := !measured_ns +. (stretch_ns.data.(k) /. slowdown k)
  done;
  {
    ok = !ok;
    failed = !failed;
    kept = !kept;
    latency_ns = scaled latency;
    ttfb_ns = scaled ttfb;
    measured_ns = !measured_ns;
    slowdowns;
  }
