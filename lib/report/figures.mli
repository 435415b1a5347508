(** Figure-regeneration harness: one function per table/figure of the
    paper (DESIGN.md §3).  Each returns the rendered text (data rows plus
    an ASCII plot where the paper has a plot); the bench executable and
    the CLI print them. *)

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

val fig1 : context -> string
(** World map of submarine cables + landing stations + IXPs. *)

val fig2 : context -> string
(** World map of hyperscale data centers. *)

val fig3 : context -> string
val fig4a : context -> string
val fig4b : context -> string
val fig5 : context -> string

val fig6 : ?trials:int -> context -> string
val fig7 : ?trials:int -> context -> string
val fig8 : ?trials:int -> context -> string

val fig9a : context -> string
val fig9b : context -> string

val countries : ?trials:int -> context -> string
(** §4.3.4 case-study table. *)

val systems : context -> string
(** §4.4 systems table (ASes / DCs / DNS). *)

val probability : unit -> string
(** §2.3 occurrence-probability table. *)

val mitigation : context -> string
(** §5 planning outputs: shutdown benefit, augmentation plan,
    predicted partitions. *)

(** {1 Extension experiments} (DESIGN.md §3 ablations and the paper's
    future-work items) *)

val leo : unit -> string
(** §3.3 satellite analysis: Feb-2022 replay and a Carrington assessment
    of a Starlink-class constellation. *)

val grid_coupling : ?trials:int -> context -> string
(** §5.5 power-grid interdependence: coupled darkness and amplification. *)

val aftermath : ?trials:int -> context -> string
(** Recovery timeline, economic cost and traffic-shift analysis. *)

val service_resilience : context -> string
(** §5.4 resilience tests of sample geo-distributed services. *)

val ablations : ?trials:int -> context -> string
(** Threshold / geomagnetic-tier / spacing / repeater-fragility
    sensitivity tables. *)

val risk_horizon : unit -> string
(** Stochastic storm sequences: decadal Carrington probabilities under
    the modulated Poisson model. *)

val interdomain : unit -> string
(** §5.3: BGP vs. multipath continuity on a Gao–Rexford AS topology under
    storm-induced AS failures. *)

val capacity : ?trials:int -> context -> string
(** Capacity-weighted corridor analysis: max-flow Tbps between shores,
    surviving share under S1/S2 and the min-cut cables. *)

val ids : string list
(** Every figure id, in paper order: paper figures first, extension
    experiments after. *)

val render : ?trials:int -> context -> string -> string option
(** [render ctx id] renders figure [id] alone: the text {!all} pairs
    with [id], byte for byte, building only the datasets that figure
    reads.  [None] for an id not in {!ids}, before anything is built. *)

val all : ?trials:int -> context -> (string * string) list
(** [(figure id, rendered text)] for everything above, in {!ids} order.
    Each figure is one task of an {!Exec.parallel_for} at
    {!Exec.default_jobs}, taken longest first; the trial loops inside a
    figure run inline on its domain.  The text is the same for any job
    count. *)
