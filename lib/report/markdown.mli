(** Markdown export of the figure harness.

    `solarstorm figures --markdown results.md` emits one fenced section
    per figure so results can be committed/diffed alongside the paper
    comparison in EXPERIMENTS.md. *)

val document : title:string -> intro:string -> (string * string) list -> string
(** Full document from [(figure id, text)] pairs. *)

val write_results : path:string -> (string * string) list -> unit
(** Render under the title "solarstorm results" and write to a file.
    @raise Sys_error on unwritable paths. *)
