(** Infrastructure-distribution analyses: Figures 3, 4 and 5.

    Pure functions from datasets to plottable series; the [Report] library
    renders them and the bench harness prints them. *)

type pdf_series = { label : string; points : (float * float) list }
(** [(latitude bin centre, probability density %)] — Fig. 3 axes. *)

type threshold_series = { label : string; points : (float * float) list }
(** [(|latitude| threshold, percent above)] — Fig. 4 axes. *)

type cdf_series = { label : string; points : (float * float) list }
(** [(length km, cumulative fraction)] — Fig. 5 axes. *)

val fig3 : submarine:Infra.Network.t -> pdf_series list
(** Population and submarine-endpoint latitude PDFs over 2° bins. *)

val fig4a :
  submarine:Infra.Network.t -> intertubes:Infra.Network.t -> threshold_series list
(** Submarine endpoints, one-hop endpoints, Intertubes endpoints and
    population above each 10°-step threshold. *)

val fig4b :
  routers:float array ->
  ixps:Datasets.Ixp.t array ->
  dns:Datasets.Dns_roots.instance array ->
  threshold_series list
(** Internet routers, IXPs, DNS root servers and population. *)

val fig5 :
  submarine:Infra.Network.t ->
  intertubes:Infra.Network.t ->
  itu:Infra.Network.t ->
  cdf_series list
(** Cable-length CDFs of the three networks. *)

val mass_above : pdf_series -> threshold:float -> float
(** Probability mass of the PDF beyond |latitude| > [threshold],
    estimated as Σ density × bin width over qualifying sample points.
    Bin widths come from consecutive sample abscissae (half the gap to
    each neighbour for interior points, the adjacent gap at the edges),
    so the estimate tracks the series' actual grid instead of assuming
    one. *)
