type stream = {
  s_status : int;
  s_content_type : string;
  s_headers : (string * string) list;
  s_body : (string -> unit) -> unit;
}

type reply = Response of Http.response | Stream of stream

type route = {
  meth : Http.meth;
  route_path : string;
  handler : Http.request -> reply;
}

let dispatch ~routes req =
  let path = Http.path req in
  match List.filter (fun r -> r.route_path = path) routes with
  | [] ->
      Response (Http.response ~status:404 (Http.error_body ("no such endpoint: " ^ path)))
  | candidates -> (
      match List.find_opt (fun r -> r.meth = req.Http.meth) candidates with
      | None ->
          let allow =
            String.concat ", "
              (List.sort_uniq compare
                 (List.map (fun r -> Http.meth_to_string r.meth) candidates))
          in
          Response
            (Http.response ~status:405
               ~headers:[ ("allow", allow) ]
               (Http.error_body
                  (Printf.sprintf "%s does not accept %s (allow: %s)" path
                     (Http.meth_to_string req.Http.meth) allow)))
      | Some r -> (
          try r.handler req
          with exn ->
            Response
              (Http.response ~status:500
                 (Http.error_body ("internal error: " ^ Printexc.to_string exn)))))

let to_response = function
  | Response r -> r
  | Stream s ->
      let buf = Buffer.create 256 in
      s.s_body (Buffer.add_string buf);
      Http.response ~content_type:s.s_content_type ~headers:s.s_headers
        ~status:s.s_status (Buffer.contents buf)
