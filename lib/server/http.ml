(* Hardened HTTP/1.1 codec, used by the server and by its clients.  See
   the interface for the contract; the implementation notes that matter:

   - a head (start line + headers) is accumulated into [pending] until
     the CRLFCRLF terminator shows up, with a byte cap checked on every
     refill so a peer streaming garbage can't grow the buffer
     unboundedly — one reader for request and response heads alike;
   - [Content-Length] is bounds-checked *before* the body is read, so an
     oversized declaration is rejected for the price of its headers;
   - all reads go through the connection's [src] thunk, which is where
     the fd variant enforces the per-read timeout — the parser itself
     never touches a socket. *)

type meth = GET | POST | Other of string

type request = {
  meth : meth;
  target : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

type limits = { max_head : int; max_body : int }

let default_limits = { max_head = 8 * 1024; max_body = 1024 * 1024 }

type parse_error =
  | Bad_request of string
  | Head_too_large
  | Body_too_large
  | Timeout
  | Eof

exception Source_timeout

type conn = { src : unit -> string; mutable pending : string }

let conn_of_source src = { src; pending = "" }

let conn_of_string s =
  let remaining = ref s in
  conn_of_source (fun () ->
      let chunk = !remaining in
      remaining := "";
      chunk)

let conn_of_fd ?(timeout_s = 5.0) fd =
  let buf = Bytes.create 4096 in
  let rec src () =
    match Unix.select [ fd ] [] [] timeout_s with
    | [], _, _ -> raise Source_timeout
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> src ()
    | _ -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ""
        | n -> Bytes.sub_string buf 0 n
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ""
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> src ())
  in
  conn_of_source src

let buffered c = c.pending <> ""

(* --- reading --- *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

(* Append the source's next bytes to [pending]; false at EOF. *)
let refill c =
  match c.src () with
  | "" -> false
  | chunk ->
      c.pending <- c.pending ^ chunk;
      true

let drop c n = c.pending <- String.sub c.pending n (String.length c.pending - n)

(* The next [n] bytes, refilling as needed; [None] when EOF comes first. *)
let rec take c n =
  if String.length c.pending >= n then begin
    let s = String.sub c.pending 0 n in
    drop c n;
    Some s
  end
  else if refill c then take c n
  else None

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* Refill until [term] shows up: [Ok (Some i)] at its offset, [Ok None]
   at EOF without it, and [Error too_long] once more than [cap] bytes
   precede it.  The last check allows for a terminator that has only
   partly arrived, so the answer is the same however the bytes are
   split across reads. *)
let rec find_within c term ~cap ~too_long =
  match find_sub c.pending term 0 with
  | Some i -> if i > cap then Error too_long else Ok (Some i)
  | None ->
      if String.length c.pending > cap + String.length term - 1 then Error too_long
      else if refill c then find_within c term ~cap ~too_long
      else Ok None

(* Every reader runs under this: a stalled source is an [Error], never
   an exception. *)
let guard f = match f () with r -> r | exception Source_timeout -> Error Timeout

let parse_meth = function
  | "GET" -> GET
  | "POST" -> POST
  | m -> Other m

let meth_to_string = function GET -> "GET" | POST -> "POST" | Other m -> m

let header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> Error (Bad_request ("malformed header line: " ^ line))
  | Some i ->
      let name = String.sub line 0 i in
      let ok_name_char ch =
        (ch >= 'a' && ch <= 'z')
        || (ch >= 'A' && ch <= 'Z')
        || (ch >= '0' && ch <= '9')
        || ch = '-' || ch = '_'
      in
      if not (String.for_all ok_name_char name) then
        Error (Bad_request ("malformed header name: " ^ name))
      else
        let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        Ok (String.lowercase_ascii name, value)

let request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] when meth <> "" && target <> "" ->
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        Error (Bad_request ("unsupported protocol version: " ^ version))
      else if target.[0] <> '/' && target <> "*" then
        Error (Bad_request ("malformed request target: " ^ target))
      else Ok (parse_meth meth, target, version)
  | _ -> Error (Bad_request ("malformed request line: " ^ line))

(* "HTTP/1.1 200 OK": the version and a three-digit code; the reason
   phrase is not read. *)
let status_line line =
  match String.split_on_char ' ' line with
  | ("HTTP/1.1" | "HTTP/1.0") :: code :: _
    when String.length code = 3 && String.for_all (fun ch -> ch >= '0' && ch <= '9') code ->
      Ok (int_of_string code)
  | _ -> Error (Bad_request ("malformed status line: " ^ line))

let rec split_crlf s =
  match find_sub s "\r\n" 0 with
  | None -> [ s ]
  | Some i -> String.sub s 0 i :: split_crlf (String.sub s (i + 2) (String.length s - i - 2))

(* The one head reader: refill until CRLFCRLF, at most [max_head] bytes
   in, consume the head, and parse its first line with [start_line] and
   every other line with [header_line].  [what] ("request" or
   "response") names the message in a truncation error. *)
let read_head ~limits ~what c start_line =
  let* i =
    match find_within c "\r\n\r\n" ~cap:limits.max_head ~too_long:Head_too_large with
    | Ok None when c.pending = "" -> Error Eof
    | Ok None -> Error (Bad_request ("truncated " ^ what ^ " head"))
    | Ok (Some i) -> Ok i
    | Error e -> Error e
  in
  let head = String.sub c.pending 0 i in
  drop c (i + 4);
  match split_crlf head with
  | [] -> Error (Bad_request ("empty " ^ what ^ " head"))
  | first :: rest ->
      let* start = start_line first in
      let rec fields acc = function
        | [] -> Ok (start, List.rev acc)
        | line :: rest ->
            let* kv = header_line line in
            fields (kv :: acc) rest
      in
      fields [] rest

let content_length headers =
  match List.assoc_opt "content-length" headers with
  | None -> Ok None
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 0 -> Ok (Some n)
      | _ -> Error (Bad_request ("malformed content-length: " ^ v)))

(* The one Content-Length body reader: the cap is checked before a byte
   of the body is read. *)
let read_body ~limits ~what c len =
  if len > limits.max_body then Error Body_too_large
  else
    match take c len with
    | Some body -> Ok body
    | None -> Error (Bad_request ("truncated " ^ what ^ " body"))

let path req =
  match String.index_opt req.target '?' with
  | None -> req.target
  | Some i -> String.sub req.target 0 i

let query_params req =
  match String.index_opt req.target '?' with
  | None -> []
  | Some i ->
      String.sub req.target (i + 1) (String.length req.target - i - 1)
      |> String.split_on_char '&'
      |> List.filter_map (fun kv ->
             if kv = "" then None
             else
               match String.index_opt kv '=' with
               | None -> Some (kv, "")
               | Some j ->
                   Some
                     ( String.sub kv 0 j,
                       String.sub kv (j + 1) (String.length kv - j - 1) ))

let query_param req name = List.assoc_opt name (query_params req)

let wants_close req =
  let conn = Option.map String.lowercase_ascii (List.assoc_opt "connection" req.headers) in
  match (req.version, conn) with
  | _, Some "close" -> true
  | "HTTP/1.0", Some "keep-alive" -> false
  | "HTTP/1.0", _ -> true
  | _ -> false

let parse_request ?(limits = default_limits) c =
  guard @@ fun () ->
  let* (meth, target, version), headers = read_head ~limits ~what:"request" c request_line in
  let* () =
    if List.mem_assoc "transfer-encoding" headers then
      Error (Bad_request "transfer-encoding is not supported")
    else Ok ()
  in
  let* len = content_length headers in
  let* body = read_body ~limits ~what:"request" c (Option.value len ~default:0) in
  Ok { meth; target; version; headers; body }

(* --- responses --- *)

type response = {
  status : int;
  content_type : string;
  extra_headers : (string * string) list;
  body : string;
}

let response ?(content_type = "application/json") ?(headers = []) ~status body =
  { status; content_type; extra_headers = headers; body }

let error_body msg = Printf.sprintf "{\"error\":\"%s\"}\n" (Obs.Json.escape msg)

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let error_response = function
  | Bad_request msg -> response ~status:400 (error_body msg)
  | Head_too_large -> response ~status:431 (error_body "request head too large")
  | Body_too_large -> response ~status:413 (error_body "request body too large")
  | Timeout -> response ~status:408 (error_body "request timed out")
  | Eof -> invalid_arg "Http.error_response: Eof is not a protocol error"

let read_response ~limits c =
  guard @@ fun () ->
  let* status, headers = read_head ~limits ~what:"response" c status_line in
  let r =
    {
      status;
      content_type = Option.value ~default:"" (List.assoc_opt "content-type" headers);
      extra_headers = List.remove_assoc "content-type" headers;
      body = "";
    }
  in
  match (List.assoc_opt "transfer-encoding" headers, content_length headers) with
  | Some te, _ when String.lowercase_ascii te = "chunked" -> Ok (r, `Chunked)
  | Some te, _ -> Error (Bad_request ("unsupported transfer-encoding: " ^ te))
  | None, Error e -> Error e
  | None, Ok None -> Error (Bad_request "response has no content-length")
  | None, Ok (Some len) ->
      let* body = read_body ~limits ~what:"response" c len in
      Ok ({ r with body }, `Fixed)

(* --- writing --- *)

(* A head: the start line, one line per field, a blank line. *)
let head start fields =
  String.concat ""
    ((start :: "\r\n" :: List.concat_map (fun (k, v) -> [ k; ": "; v; "\r\n" ]) fields)
    @ [ "\r\n" ])

(* The one response-head writer, behind [to_string] and [stream_head]:
   content-type, the framing field, connection, then the extra headers
   in order. *)
let response_head ~status ~content_type ~framing ~close headers =
  head
    ("HTTP/1.1 " ^ string_of_int status ^ " " ^ reason status)
    (("content-type", content_type)
    :: framing
    :: ("connection", if close then "close" else "keep-alive")
    :: headers)

let to_string ~close r =
  response_head ~status:r.status ~content_type:r.content_type
    ~framing:("content-length", string_of_int (String.length r.body))
    ~close r.extra_headers
  ^ r.body

let request_to_string (r : request) =
  let length =
    if r.body = "" then [] else [ ("content-length", string_of_int (String.length r.body)) ]
  in
  head (String.concat " " [ meth_to_string r.meth; r.target; r.version ]) (r.headers @ length)
  ^ r.body

(* --- chunked transfer framing --- *)

let chunk s =
  if s = "" then "" else Printf.sprintf "%x\r\n%s\r\n" (String.length s) s

let last_chunk = "0\r\n\r\n"

let stream_head ?(content_type = "application/json") ?(headers = []) ~status ~close ()
    =
  response_head ~status ~content_type ~framing:("transfer-encoding", "chunked") ~close
    headers

let stream_write_bytes = 65536

let respond_stream ?content_type ?headers ~status ~close ~write producer =
  let buf = Buffer.create 4096 in
  let send () =
    if Buffer.length buf > 0 then begin
      let bytes = Buffer.contents buf in
      Buffer.clear buf;
      write bytes
    end
  in
  Buffer.add_string buf (stream_head ?content_type ?headers ~status ~close ());
  let first = ref true in
  (match
     producer (fun s ->
         if s = "" then send ()
         else begin
           Buffer.add_string buf (chunk s);
           if !first || Buffer.length buf >= stream_write_bytes then begin
             first := false;
             send ()
           end
         end)
   with
  | () -> ()
  | exception exn ->
      (* The connection is abandoned either way; the producer's failure,
         not a write to a peer that may be gone, is the one to report. *)
      (try send () with _ -> ());
      raise exn);
  Buffer.add_string buf last_chunk;
  send ()

(* Chunked-body reader (client side of [respond_stream]; tests and the
   load generator).  Trailer sections are not supported: the terminal
   chunk must be followed immediately by CRLF. *)

let hex_of_string s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 || n > 8 then None
  else
    let rec go i acc =
      if i = n then Some acc
      else
        match s.[i] with
        | '0' .. '9' as ch -> go (i + 1) ((acc * 16) + (Char.code ch - Char.code '0'))
        | 'a' .. 'f' as ch ->
            go (i + 1) ((acc * 16) + (Char.code ch - Char.code 'a' + 10))
        | 'A' .. 'F' as ch ->
            go (i + 1) ((acc * 16) + (Char.code ch - Char.code 'A' + 10))
        | _ -> None
    in
    go 0 0

let read_chunk ?(limits = default_limits) c =
  guard @@ fun () ->
  (* A size line is a short hex count plus optional extensions —
     anything growing past a head's budget is garbage. *)
  let* le =
    match
      find_within c "\r\n" ~cap:limits.max_head
        ~too_long:(Bad_request "chunk size line too long")
    with
    | Ok None -> Error (Bad_request "truncated chunk")
    | Ok (Some le) -> Ok le
    | Error e -> Error e
  in
  let size_line = String.sub c.pending 0 le in
  let size_str =
    match String.index_opt size_line ';' with
    | Some i -> String.sub size_line 0 i
    | None -> size_line
  in
  let* size =
    match hex_of_string size_str with
    | Some n -> Ok n
    | None -> Error (Bad_request ("malformed chunk size: " ^ size_line))
  in
  if size > limits.max_body then Error Body_too_large
  else begin
    drop c (le + 2);
    match take c (size + 2) with
    | None -> Error (Bad_request "truncated chunk")
    | Some framed when String.sub framed size 2 <> "\r\n" ->
        Error (Bad_request "malformed chunk terminator")
    | Some _ when size = 0 -> Ok None
    | Some framed -> Ok (Some (String.sub framed 0 size))
  end

let read_chunked_body ?(limits = default_limits) c =
  let buf = Buffer.create 256 in
  let rec go () =
    let* data = read_chunk ~limits c in
    match data with
    | None -> Ok (Buffer.contents buf)
    | Some data ->
        if Buffer.length buf + String.length data > limits.max_body then
          Error Body_too_large
        else begin
          Buffer.add_string buf data;
          go ()
        end
  in
  go ()

(* --- sockets --- *)

let write_all fd s =
  let rec from off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> from (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> from off
  in
  from 0

let resolve ~host ~port =
  Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]

(* Try each resolved address in turn: "localhost" may list ::1 before
   127.0.0.1, and a server bound to one family refuses the other. *)
let connect ~host ~port =
  let open_ ai =
    let fd = Unix.socket ~cloexec:true ai.Unix.ai_family ai.Unix.ai_socktype 0 in
    (try Unix.connect fd ai.Unix.ai_addr
     with e ->
       Unix.close fd;
       raise e);
    (* Small pipelined writes must not wait on Nagle. *)
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error (_, _, _) -> ());
    fd
  in
  let rec first err = function
    | [] -> Error err
    | ai :: rest -> (
        match open_ ai with
        | fd -> Ok fd
        | exception Unix.Unix_error (e, _, _) ->
            first (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e)) rest)
  in
  first (Printf.sprintf "cannot resolve %s:%d" host port) (resolve ~host ~port)
