(* `solarstorm top`: a live terminal view of a running server, built by
   polling /statusz and /varz over plain HTTP and re-rendering a frame
   per poll.  Rendering is pure ([render] maps two parsed JSON documents
   to a string) so tests exercise the layout without a socket; the
   screen-clearing ANSI prefix goes through {!Obs.Progress.tty_sink}, so
   piping `top` into a file records clean frames with no control
   codes — the same gating the progress meter uses. *)

let jpath doc path =
  List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some doc) path

let jnum doc path = Option.bind (jpath doc path) Obs.Json.number
let jstr doc path = Option.bind (jpath doc path) Obs.Json.string_

(* One-shot GET over the shared codec: Connection: close, one reply read
   without a body cap or a read deadline, its body on a 200. *)
let fetch ~host ~port path =
  match Http.connect ~host ~port with
  | Error e -> Error e
  | Ok fd -> (
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      @@ fun () ->
      let req =
        {
          Http.meth = GET;
          target = path;
          version = "HTTP/1.1";
          headers = [ ("host", host); ("connection", "close") ];
          body = "";
        }
      in
      match Http.write_all fd (Http.request_to_string req) with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "GET %s: %s" path (Unix.error_message e))
      | () -> (
          let limits = { Http.default_limits with max_body = max_int } in
          match Http.read_response ~limits (Http.conn_of_fd ~timeout_s:(-1.0) fd) with
          | Ok ({ Http.status = 200; body; _ }, `Fixed) -> Ok body
          | Ok (r, _) -> Error (Printf.sprintf "GET %s: HTTP %d" path r.Http.status)
          | Error _ -> Error (Printf.sprintf "GET %s: malformed response" path)))

let fetch_json ~host ~port path =
  match fetch ~host ~port path with
  | Error e -> Error e
  | Ok body -> (
      match Obs.Json.parse body with
      | Ok doc -> Ok doc
      | Error e -> Error (Printf.sprintf "GET %s: bad JSON: %s" path e))

(* Unicode block-element sparkline, min–max scaled like the dashboard's
   SVG one. *)
let spark_levels = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let spark ?(width = 32) vs =
  let vs = if List.length vs > width then
      (* keep the newest [width] values *)
      List.filteri (fun i _ -> i >= List.length vs - width) vs
    else vs
  in
  match vs with
  | [] -> ""
  | vs ->
      let lo = List.fold_left min infinity vs in
      let hi = List.fold_left max neg_infinity vs in
      let span = hi -. lo in
      String.concat ""
        (List.map
           (fun v ->
             let lvl =
               if span <= 0.0 then 3
               else
                 let x = (v -. lo) /. span *. 7.0 in
                 int_of_float (Float.round x)
             in
             spark_levels.(max 0 (min 7 lvl)))
           vs)

let series_points varz name sub =
  match jpath varz [ "series"; name; sub ] with
  | Some (Obs.Json.Array pts) ->
      List.filter_map
        (fun p ->
          match p with
          | Obs.Json.Array [ _; v ] -> Obs.Json.number v
          | _ -> None)
        pts
  | _ -> []

let fmt_opt fmt = function Some v -> Printf.sprintf fmt v | None -> "-"

let render ~target ~statusz ~varz =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  let version = Option.value ~default:"?" (jstr statusz [ "build"; "version" ]) in
  let workers = fmt_opt "%.0f" (jnum statusz [ "build"; "workers" ]) in
  let uptime = fmt_opt "%.0fs" (jnum statusz [ "uptime_s" ]) in
  line "solarstorm top — %s — v%s — %s workers — up %s" target version workers uptime;
  let total = fmt_opt "%.0f" (jnum statusz [ "requests"; "total" ]) in
  let rate = fmt_opt "%.1f/s" (jnum varz [ "series"; "server.requests"; "rate_per_s" ]) in
  line "requests   total %-10s rate %-12s %s" total rate
    (spark (series_points varz "server.requests" "points"));
  let q name = fmt_opt "%.2fms" (jnum varz [ "series"; "server.request.ms"; name ]) in
  line "latency    p50 %-8s p95 %-8s p99 %-8s %s" (q "p50") (q "p95") (q "p99")
    (spark (series_points varz "server.request.ms" "p99_points"));
  let cache k = fmt_opt "%.0f" (jnum statusz [ "cache"; k ]) in
  line "cache      hits %-10s misses %-8s entries %s" (cache "hits") (cache "misses")
    (cache "entries");
  let firing = jnum statusz [ "alerts"; "firing" ] in
  let nrules = fmt_opt "%.0f" (jnum statusz [ "alerts"; "rules" ]) in
  line "alerts     %s firing of %s rules%s"
    (fmt_opt "%.0f" firing)
    nrules
    (match firing with Some f when f > 0.0 -> "  ** FIRING **" | _ -> "");
  line "window     %ss · %s samples · Ctrl-C to quit"
    (fmt_opt "%.0f" (jnum varz [ "window_s" ]))
    (fmt_opt "%.0f" (jnum varz [ "samples" ]));
  Buffer.contents b

(* ANSI clear + home, emitted only on a real terminal: the frame body
   always prints, so redirected output is a sequence of readable
   frames. *)
let clear_screen =
  let sink = ref None in
  fun out ->
    let s =
      match !sink with
      | Some s -> s
      | None ->
          let s = Obs.Progress.tty_sink ~isatty:(fun () -> Unix.isatty Unix.stdout) out in
          sink := Some s;
          s
    in
    s "\027[2J\027[H"

let run ?(out = fun s -> print_string s; flush stdout) ~host ~port ~window ~interval_s
    ~count () =
  let target = Printf.sprintf "%s:%d" host port in
  let varz_path = Printf.sprintf "/varz?window=%s" window in
  let rec loop remaining =
    match (fetch_json ~host ~port "/statusz", fetch_json ~host ~port varz_path) with
    | Error e, _ | _, Error e -> Error e
    | Ok statusz, Ok varz ->
        clear_screen out;
        out (render ~target ~statusz ~varz);
        let remaining = Option.map (fun n -> n - 1) remaining in
        if remaining = Some 0 then Ok ()
        else begin
          (try Unix.sleepf interval_s with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop remaining
        end
  in
  loop count
