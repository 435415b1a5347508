(* Hardened HTTP/1.1 reader/writer.  See the interface for the contract;
   the implementation notes that matter:

   - the head (request line + headers) is accumulated into [pending]
     until the CRLFCRLF terminator shows up, with a byte cap checked on
     every refill so a peer streaming garbage can't grow the buffer
     unboundedly;
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

let conn_of_string s =
  let remaining = ref s in
  let src () =
    let chunk = !remaining in
    remaining := "";
    chunk
  in
  { src; pending = "" }

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
  { src; pending = "" }

let buffered c = c.pending <> ""

(* --- head parsing --- *)

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

let parse_meth = function
  | "GET" -> GET
  | "POST" -> POST
  | m -> Other m

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

let rec split_crlf s =
  match find_sub s "\r\n" 0 with
  | None -> [ s ]
  | Some i -> String.sub s 0 i :: split_crlf (String.sub s (i + 2) (String.length s - i - 2))

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let parse_head head =
  match split_crlf head with
  | [] -> Error (Bad_request "empty request head")
  | first :: rest ->
      let* meth, target, version = request_line first in
      let* headers =
        List.fold_left
          (fun acc line ->
            let* acc = acc in
            let* kv = header_line line in
            Ok (kv :: acc))
          (Ok []) rest
      in
      Ok (meth, target, version, List.rev headers)

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

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
  let conn = Option.map String.lowercase_ascii (header req "connection") in
  match (req.version, conn) with
  | _, Some "close" -> true
  | "HTTP/1.0", Some "keep-alive" -> false
  | "HTTP/1.0", _ -> true
  | _ -> false

(* Refill [pending] until [want] returns a position, EOF, cap or
   timeout. *)
let parse_request ?(limits = default_limits) c =
  let refill () =
    match c.src () with
    | "" -> false
    | chunk ->
        c.pending <- c.pending ^ chunk;
        true
  in
  let rec head_end () =
    match find_sub c.pending "\r\n\r\n" 0 with
    | Some i -> Ok i
    | None ->
        if String.length c.pending > limits.max_head then Error Head_too_large
        else if refill () then head_end ()
        else if c.pending = "" then Error Eof
        else Error (Bad_request "truncated request head")
  in
  match
    let* hd_end = head_end () in
    if hd_end > limits.max_head then Error Head_too_large
    else
      let head = String.sub c.pending 0 hd_end in
      c.pending <-
        String.sub c.pending (hd_end + 4) (String.length c.pending - hd_end - 4);
      let* meth, target, version, headers = parse_head head in
      let req = { meth; target; version; headers; body = "" } in
      let* () =
        match header req "transfer-encoding" with
        | Some _ -> Error (Bad_request "transfer-encoding is not supported")
        | None -> Ok ()
      in
      let* body_len =
        match header req "content-length" with
        | None -> Ok 0
        | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some n when n >= 0 -> Ok n
            | _ -> Error (Bad_request ("malformed content-length: " ^ v)))
      in
      if body_len > limits.max_body then Error Body_too_large
      else
        let rec body () =
          if String.length c.pending >= body_len then begin
            let b = String.sub c.pending 0 body_len in
            c.pending <-
              String.sub c.pending body_len (String.length c.pending - body_len);
            Ok b
          end
          else if refill () then body ()
          else Error (Bad_request "truncated request body")
        in
        let* body = body () in
        Ok { req with body }
  with
  | r -> r
  | exception Source_timeout -> Error Timeout

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

(* --- chunked transfer framing --- *)

let chunk s =
  if s = "" then "" else Printf.sprintf "%x\r\n%s\r\n" (String.length s) s

let last_chunk = "0\r\n\r\n"

let stream_head ?(content_type = "application/json") ?(headers = []) ~status ~close ()
    =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (reason status));
  Buffer.add_string buf (Printf.sprintf "content-type: %s\r\n" content_type);
  Buffer.add_string buf "transfer-encoding: chunked\r\n";
  Buffer.add_string buf
    (Printf.sprintf "connection: %s\r\n" (if close then "close" else "keep-alive"));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    headers;
  Buffer.add_string buf "\r\n";
  Buffer.contents buf

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
  let refill () =
    match c.src () with
    | "" -> false
    | chunk ->
        c.pending <- c.pending ^ chunk;
        true
  in
  let drop n = c.pending <- String.sub c.pending n (String.length c.pending - n) in
  let rec size_line_end () =
    match find_sub c.pending "\r\n" 0 with
    | Some i -> Ok i
    | None ->
        (* A size line is a short hex count plus optional extensions —
           anything growing past a head's budget is garbage. *)
        if String.length c.pending > limits.max_head then
          Error (Bad_request "chunk size line too long")
        else if refill () then size_line_end ()
        else Error (Bad_request "truncated chunk")
  in
  match
    let* le = size_line_end () in
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
      drop (le + 2);
      let total = size + 2 in
      let rec need () =
        if String.length c.pending >= total then Ok ()
        else if refill () then need ()
        else Error (Bad_request "truncated chunk")
      in
      let* () = need () in
      if String.sub c.pending size 2 <> "\r\n" then
        Error (Bad_request "malformed chunk terminator")
      else begin
        let data = String.sub c.pending 0 size in
        drop total;
        if size = 0 then Ok None else Ok (Some data)
      end
    end
  with
  | r -> r
  | exception Source_timeout -> Error Timeout

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

let to_string ~close r =
  let buf = Buffer.create (String.length r.body + 256) in
  Buffer.add_string buf (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status (reason r.status));
  Buffer.add_string buf (Printf.sprintf "content-type: %s\r\n" r.content_type);
  Buffer.add_string buf (Printf.sprintf "content-length: %d\r\n" (String.length r.body));
  Buffer.add_string buf
    (Printf.sprintf "connection: %s\r\n" (if close then "close" else "keep-alive"));
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v))
    r.extra_headers;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf r.body;
  Buffer.contents buf
