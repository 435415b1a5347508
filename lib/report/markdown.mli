(** Markdown export of the figure harness.

    `solarstorm figures --markdown results.md` emits one fenced section
    per figure so results can be committed/diffed alongside the paper
    comparison in EXPERIMENTS.md. *)

val write_results : path:string -> (string * string) list -> unit
(** Write the document of [(figure id, text)] pairs, titled "solarstorm
    results", to a file: one [## id] section and fenced block each.
    @raise Sys_error on unwritable paths. *)
