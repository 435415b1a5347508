(* Minimal JSON reader/writer: enough to load the documents this
   repository itself emits (solarstorm-bench/1 perf documents, chrome
   traces) and to serve/accept the simulation service's request and
   response bodies, with no external dependency.  Recursive descent over
   a string; numbers are floats; [null] maps to [Null] (the writer emits
   it for non-finite values). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string

type cursor = { s : string; mutable i : int }

let error c msg = raise (Parse_error (Printf.sprintf "offset %d: %s" c.i msg))

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | _ -> error c (Printf.sprintf "expected %c" ch)

let literal c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else error c ("expected " ^ word)

let parse_string_body c =
  (* Opening quote already consumed. *)
  let buf = Buffer.create 16 in
  let rec go () =
    if c.i >= String.length c.s then error c "unterminated string";
    let ch = c.s.[c.i] in
    c.i <- c.i + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if c.i >= String.length c.s then error c "unterminated escape";
        let e = c.s.[c.i] in
        c.i <- c.i + 1;
        match e with
        | '"' -> Buffer.add_char buf '"'; go ()
        | '\\' -> Buffer.add_char buf '\\'; go ()
        | '/' -> Buffer.add_char buf '/'; go ()
        | 'b' -> Buffer.add_char buf '\b'; go ()
        | 'f' -> Buffer.add_char buf '\012'; go ()
        | 'n' -> Buffer.add_char buf '\n'; go ()
        | 'r' -> Buffer.add_char buf '\r'; go ()
        | 't' -> Buffer.add_char buf '\t'; go ()
        | 'u' ->
            let hex4 () =
              if c.i + 4 > String.length c.s then error c "truncated \\u escape";
              let hex = String.sub c.s c.i 4 in
              let is_hex ch =
                (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')
                || (ch >= 'A' && ch <= 'F')
              in
              if not (String.for_all is_hex hex) then
                error c ("bad \\u escape " ^ hex);
              c.i <- c.i + 4;
              int_of_string ("0x" ^ hex)
            in
            let code = hex4 () in
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* High surrogate: JSON encodes astral-plane characters as a
                 \uD800-\uDBFF + \uDC00-\uDFFF pair. *)
              if
                not
                  (c.i + 2 <= String.length c.s
                  && c.s.[c.i] = '\\'
                  && c.s.[c.i + 1] = 'u')
              then error c "high surrogate without low surrogate";
              c.i <- c.i + 2;
              let lo = hex4 () in
              if lo < 0xDC00 || lo > 0xDFFF then
                error c "high surrogate without low surrogate";
              let u = 0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00) in
              Buffer.add_utf_8_uchar buf (Uchar.of_int u)
            end
            else if Uchar.is_valid code then
              Buffer.add_utf_8_uchar buf (Uchar.of_int code)
            else error c "lone low surrogate";
            go ()
        | _ -> error c "bad escape")
    | ch -> Buffer.add_char buf ch; go ()
  in
  go ()

let parse_number c =
  let start = c.i in
  let numchar ch =
    (ch >= '0' && ch <= '9')
    || ch = '-' || ch = '+' || ch = '.' || ch = 'e' || ch = 'E'
  in
  while c.i < String.length c.s && numchar c.s.[c.i] do
    c.i <- c.i + 1
  done;
  match float_of_string_opt (String.sub c.s start (c.i - start)) with
  | Some v -> Number v
  | None -> error c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.i <- c.i + 1;
        Object []
      end
      else begin
        let rec members acc =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              members ((k, v) :: acc)
          | Some '}' ->
              c.i <- c.i + 1;
              List.rev ((k, v) :: acc)
          | _ -> error c "expected , or } in object"
        in
        Object (members [])
      end
  | Some '[' ->
      c.i <- c.i + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.i <- c.i + 1;
        Array []
      end
      else begin
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.i <- c.i + 1;
              elems (v :: acc)
          | Some ']' ->
              c.i <- c.i + 1;
              List.rev (v :: acc)
          | _ -> error c "expected , or ] in array"
        in
        Array (elems [])
      end
  | Some '"' ->
      c.i <- c.i + 1;
      String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { s; i = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.i <> String.length s then error c "trailing content";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let parse_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> parse s
  | exception Sys_error msg -> Error msg

let member k = function
  | Object kvs -> List.assoc_opt k kvs
  | _ -> None

let number = function Number v -> Some v | _ -> None
let string_ = function String s -> Some s | _ -> None
let array = function Array l -> Some l | _ -> None

(* --- writer --- *)

(* The C primitive behind [Printf]'s [%f]/[%g] conversions, called
   without the format interpreter: [format_float "%.17g" v] is
   byte-identical to [Printf.sprintf "%.17g" v] and about a quarter
   cheaper (0.76 vs 0.99 µs on a 2-CPU VM). *)
external format_float : string -> float -> string = "caml_format_float"

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let number_repr v =
  (* JSON has no literal for non-finite numbers — "%.17g" would print
     "nan"/"inf" and corrupt the document, so map them to null. *)
  if Float.is_nan v || v = Float.infinity || v = Float.neg_infinity then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then format_float "%.1f" v
  else format_float "%.17g" v

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if pretty then Buffer.add_char buf '\n' in
  let colon = if pretty then ": " else ":" in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Number v -> Buffer.add_string buf (number_repr v)
    | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | Array [] -> Buffer.add_string buf "[]"
    | Array l ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i v ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            go (depth + 1) v)
          l;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object kvs ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_char buf '"';
            Buffer.add_string buf colon;
            go (depth + 1) v)
          kvs;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf
