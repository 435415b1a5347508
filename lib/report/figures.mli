(** Figure-regeneration harness: every table and figure of the paper
    (DESIGN.md §3), rendered by id through {!render} or {!all}.  Each
    renders to text (data rows plus an ASCII plot where the paper has a
    plot); the bench executable and the CLI print them. *)

type context
(** The figure datasets' parameters.  Construction is free; each dataset
    is built on first use (via [Datasets.Cache], shared process-wide),
    so rendering one figure builds only what that figure reads.  Safe to
    share between domains: concurrent first uses of one dataset share
    one build. *)

val make_context : ?seed:int -> ?itu_scale:float -> ?caida_ases:int -> unit -> context
(** [itu_scale] (default 0.3) and [caida_ases] (default 8000) trade
    fidelity for run time; the defaults keep [dune exec bench/main.exe]
    under a few minutes. *)

val submarine : context -> Infra.Network.t
val intertubes : context -> Infra.Network.t
val itu : context -> Infra.Network.t
val ases : context -> Datasets.Caida.asys array
val dns : context -> Datasets.Dns_roots.instance array
val ixps : context -> Datasets.Ixp.t array
(** Dataset accessors; each builds (and caches) its dataset on first
    call. *)

val ids : string list
(** Every figure id, in paper order: paper figures first, extension
    experiments after. *)

val render : ?trials:int -> context -> string -> string option
(** [render ctx id] renders figure [id] alone: the text {!all} pairs
    with [id], byte for byte, building only the datasets that figure
    reads.  [None] for an id not in {!ids}, before anything is built.
    [trials] (default 10) is the Monte-Carlo trial count: [countries]
    runs at least 20, [aftermath] and [capacity] at most 5. *)

val all : ?trials:int -> context -> (string * string) list
(** [(figure id, rendered text)] for every id, in {!ids} order.
    Each figure is one task of an {!Exec.parallel_for} at
    {!Exec.default_jobs}, taken longest first; the trial loops inside a
    figure run inline on its domain.  The text is the same for any job
    count. *)
