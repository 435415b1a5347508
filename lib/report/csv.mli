(** CSV export of figure series, for replotting outside the terminal. *)

val escape : string -> string
(** RFC-4180 quoting of a single field. *)

val of_series : header:string * string -> (float * float) list -> string
(** Two-column numeric CSV. *)

val write_file : path:string -> string -> unit
(** @raise Sys_error on unwritable paths. *)
