(** [solarstorm top]: a live terminal view of a running server, polling
    [/statusz] + [/varz] and repainting a frame per poll.  The
    screen-clear ANSI prefix is gated through {!Obs.Progress.tty_sink},
    so redirected output is plain readable frames. *)

val spark : float list -> string
(** Unicode block-element sparkline, min–max scaled; at most the 32
    newest values. *)

val render : target:string -> statusz:Obs.Json.t -> varz:Obs.Json.t -> string
(** One frame from parsed [/statusz] and [/varz] documents.  Pure —
    missing fields render as ["-"], never raise. *)

val run :
  ?out:(string -> unit) ->
  host:string ->
  port:int ->
  window:string ->
  interval_s:float ->
  count:int option ->
  unit ->
  (unit, string) result
(** Poll/render every [interval_s] seconds, [count] times ([None] =
    until killed).  [Error] carries the first fetch/parse failure. *)
