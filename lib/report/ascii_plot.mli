(** ASCII line plots for rendering the paper's figures in a terminal.

    Multiple series share one canvas; each series gets a distinct glyph
    and a legend line.  The x axis may be logarithmic (Figs 5–7). *)

type series = { label : string; points : (float * float) list }

val plot :
  ?width:int ->
  ?height:int ->
  ?log_x:bool ->
  ?x_label:string ->
  ?y_label:string ->
  ?title:string ->
  series list ->
  string
(** Renders the series.  Empty input or all-empty series yield a short
    placeholder string rather than raising. *)
