(** Minimal, hardened HTTP/1.1 codec over anything that can produce
    bytes, for both ends of the wire: the server ({!Service}) and its
    clients ({!Loadgen}, {!Top}).

    This is not a general HTTP stack — it reads exactly what the
    service and its clients exchange (a start line, CRLF headers, a
    [Content-Length] or chunked body) and refuses everything else with
    an [Error] instead of an exception.  Hard bounds on head and body
    size plus a per-read timeout make a malformed or malicious peer cost
    a bounded amount of memory and time.  Every reader gives the same
    answer however the peer's bytes are split across reads.

    A {!conn} buffers leftover bytes between messages, so pipelined
    requests (several requests sent back-to-back on one connection)
    parse one at a time with {!parse_request}. *)

type meth = GET | POST | Other of string

val meth_to_string : meth -> string

type request = {
  meth : meth;
  target : string;  (** request target as sent, query string included *)
  version : string;  (** ["HTTP/1.1"] or ["HTTP/1.0"] *)
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

type limits = { max_head : int; max_body : int }

val default_limits : limits
(** 8 KiB of start line + headers, 1 MiB of body. *)

type parse_error =
  | Bad_request of string  (** 400: malformed line, header or body *)
  | Head_too_large  (** 431: start line + headers over [max_head] *)
  | Body_too_large  (** 413: declared [Content-Length] or chunk over [max_body] *)
  | Timeout  (** 408: peer stalled past the read timeout *)
  | Eof  (** peer closed cleanly between messages — not an error *)

exception Source_timeout
(** Raised by a {!conn} source when a read times out; every reader maps
    it to {!Timeout}. *)

type conn
(** A byte source plus the unconsumed tail of previous reads. *)

val conn_of_source : (unit -> string) -> conn
(** Connection over a thunk that yields the peer's next bytes, [""] at
    EOF. *)

val conn_of_string : string -> conn
(** In-memory connection (tests, benchmarks): the whole peer input up
    front, EOF after. *)

val conn_of_fd : ?timeout_s:float -> Unix.file_descr -> conn
(** Connection over a socket.  Each refill waits at most [timeout_s]
    (default 5 s) for readability before raising {!Source_timeout}; a
    negative [timeout_s] waits without bound. *)

val buffered : conn -> bool
(** True when bytes from a previous read are waiting — a pipelined
    request may be parseable without touching the socket. *)

val parse_request : ?limits:limits -> conn -> (request, parse_error) result
(** Parse the next request off the connection.  Leftover bytes after the
    body stay buffered for the next call.  Never raises: source timeouts
    and EOFs come back as [Error]. *)

val path : request -> string
(** {!request.target} with any [?query] suffix removed. *)

val query_param : request -> string -> string option
(** First value of one key of the target's query string.  A key with no
    [=] maps to [""].  No percent-decoding — our query grammar
    ([window=60s]) never needs it. *)

val wants_close : request -> bool
(** True when the peer asked for [Connection: close], or spoke HTTP/1.0
    without [Connection: keep-alive]. *)

(** {2 Responses} *)

type response = {
  status : int;
  content_type : string;
  extra_headers : (string * string) list;
  body : string;
}

val response :
  ?content_type:string ->
  ?headers:(string * string) list ->
  status:int ->
  string ->
  response
(** Build a response (default content type [application/json]). *)

val error_body : string -> string
(** [{"error":"..."}\n] — the service's uniform error body. *)

val error_response : parse_error -> response
(** The 4xx response a parse error maps to.  @raise Invalid_argument on
    {!Eof}, which is not a protocol error. *)

val to_string : close:bool -> response -> string
(** Serialize with [Content-Length] and a [Connection:
    close|keep-alive] header. *)

(** {2 Chunked transfer}

    The streaming path ([POST /sweep]): a response whose length is
    unknown up front goes out as [Transfer-Encoding: chunked] — a head
    without [Content-Length], then each payload framed as
    [<hex size>CRLF<bytes>CRLF], then the terminal [0CRLFCRLF].  Fixed
    responses ({!to_string}) are untouched by any of this. *)

val chunk : string -> string
(** Frame one payload as a chunk.  [""] frames to [""] — an empty chunk
    would read as the terminator, so empty payloads are dropped. *)

val last_chunk : string
(** The terminal chunk, ["0\r\n\r\n"]. *)

val stream_head :
  ?content_type:string ->
  ?headers:(string * string) list ->
  status:int ->
  close:bool ->
  unit ->
  string
(** The head of a chunked response: status line, [content-type]
    (default [application/json]), [transfer-encoding: chunked],
    [connection], extra headers, blank line. *)

val respond_stream :
  ?content_type:string ->
  ?headers:(string * string) list ->
  status:int ->
  close:bool ->
  write:(string -> unit) ->
  ((string -> unit) -> unit) ->
  unit
(** [respond_stream ~write producer] sends the {!stream_head}, then
    runs [producer emit]: every non-empty payload is framed as its own
    chunk ({!chunk}) into a per-stream buffer, and an empty payload is
    a flush point.  [write] is called with the buffered bytes — it is
    expected to push them to the peer — at four points only: when the
    first payload has been framed (head and first payload leave
    together), at each flush point, whenever the buffer reaches 64 KiB
    (a constant, so a producer that emits many payloads between flush
    points holds bounded memory), and with {!last_chunk} at the end.
    So the buffer never holds more than 64 KiB plus one framed payload,
    and the concatenated writes are the same bytes however the producer
    places its flush points.

    Each byte is offered to [write] once.  An exception from [producer]
    propagates after whatever was buffered has been offered to [write]
    (a failure of that last write is dropped in favour of the
    producer's), without a terminal chunk: the peer sees a truncated
    body, never a fresh head, and the caller must close the connection.
    An exception from [write] propagates as is. *)

val read_chunk : ?limits:limits -> conn -> (string option, parse_error) result
(** Read one chunk off a connection positioned inside a chunked body:
    [Ok (Some data)] per chunk, [Ok None] for the terminal chunk (its
    trailing CRLF consumed — trailer sections are not supported).
    Malformed sizes or framing are [Bad_request]; a chunk declared over
    [max_body] is [Body_too_large].  Never raises. *)

val read_chunked_body : ?limits:limits -> conn -> (string, parse_error) result
(** Concatenate {!read_chunk} until the terminal chunk; the total is
    bounded by [max_body]. *)

(** {2 Client side}

    {!Loadgen} and {!Top} read replies with the server's own head, body
    and chunk readers.  Neither caps a reply nor sets a read deadline:
    they pass [max_body = max_int] and [conn_of_fd ~timeout_s:(-1.0)]. *)

val resolve : host:string -> port:int -> Unix.addr_info list
(** The stream-socket addresses of [host:port] ([host] a name or an
    address), in [getaddrinfo]'s order; [[]] when [host] does not
    resolve.  {!connect} and the server's bind both resolve through it. *)

val connect : host:string -> port:int -> (Unix.file_descr, string) result
(** Resolve [host] (a name or an address) and try each address in turn,
    so a [localhost] that lists [::1] first still reaches a server bound
    to [127.0.0.1].  The socket has [TCP_NODELAY] set. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, retrying short writes and [EINTR].
    @raise Unix.Unix_error when the peer is gone. *)

val request_to_string : request -> string
(** Request line, [headers] as given, [content-length] for a non-empty
    body, blank line, body. *)

val read_response :
  limits:limits -> conn -> (response * [ `Fixed | `Chunked ], parse_error) result
(** The next reply's head and, for [`Fixed], its [Content-Length] body;
    [extra_headers] are every header but [content-type], names
    lowercased.  For [`Chunked] the body is [""]: read the payloads with
    {!read_chunk} until [Ok None].  Never raises. *)
