(** CSV export of figure series, for replotting outside the terminal. *)

val of_series : header:string * string -> (float * float) list -> string
(** Two-column numeric CSV; header fields get RFC-4180 quoting. *)

val write_file : path:string -> string -> unit
(** @raise Sys_error on unwritable paths. *)
