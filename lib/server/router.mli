(** Method × path dispatch with uniform error replies. *)

type stream = {
  s_status : int;
  s_content_type : string;
  s_headers : (string * string) list;
  s_body : (string -> unit) -> unit;
      (** The producer: called once with an [emit] sink; every
          non-empty payload it emits goes to the peer as one chunk, and
          an empty payload is a flush point — it adds no bytes, but what
          has been emitted so far is written then rather than later
          ({!Http.respond_stream}).  A producer that emits in bursts
          (for [/sweep], one burst per trial batch) emits [""] after
          each.  It runs {e after} the handler has returned and the
          status is committed, so all request validation must happen in
          the handler — a producer failure can only truncate the
          stream, never change the status. *)
}
(** A streamed reply: status and headers now, body incrementally. *)

type reply = Response of Http.response | Stream of stream
(** What a handler answers: a fixed response (written with
    [Content-Length], cacheable, exactly as before streams existed) or
    a chunked stream. *)

type route = {
  meth : Http.meth;
  route_path : string;
  handler : Http.request -> reply;
}

val dispatch : routes:route list -> Http.request -> reply
(** Route on the request's {!Http.path} (query string ignored):
    unknown path → 404, known path with the wrong method → 405 (with an
    [allow] header), handler exception → 500.  All error replies are
    fixed {!Http.error_body} JSON responses. *)

val to_response : reply -> Http.response
(** Collapse a reply to a fixed response: a [Response] unchanged, a
    [Stream] materialized by running its producer into a buffer — the
    body is the de-chunked payload bytes (flush points add none).  The
    CLI's in-process path and tests use this; producer exceptions
    propagate. *)
