(** Sensitivity analyses / ablations for the modeling choices DESIGN.md
    calls out.

    The paper itself flags two: the 40° threshold is "conservative"
    (studies use 40 ± 10°), and repeater-failure modeling is the main
    unknown.  Each function returns plottable rows.  Sweeps run their
    Monte-Carlo trials on {!Plan.run_trials_par} on {!Exec.default_jobs}
    workers: results are deterministic in the seeds for any [--jobs]. *)

val threshold_sweep : ?trials:int -> network:Infra.Network.t -> unit -> (float * float) list
(** [(mid-threshold, S1 submarine cables failed %)] — how the headline
    tiered result moves when the vulnerable-latitude boundary shifts
    across 30, 35, 40, 45 and 50° (the high tier stays 20° above the
    mid). *)

val geographic_vs_geomagnetic :
  ?trials:int -> network:Infra.Network.t -> unit -> (string * float * float) list
(** [(state, geographic %, geomagnetic %)] for S1 and S2 cable failures:
    the dipole-latitude ablation (North Atlantic routes gain ~10° of
    effective latitude). *)

val spacing_sweep :
  ?trials:int -> network:Infra.Network.t -> model:Failure_model.t -> unit -> (float * float) list
(** [(spacing km, cables failed %)] over spacings of 50 to 200 km in
    25 km steps. *)

val seed_sensitivity :
  ?seeds:int list -> ?trials:int -> probability:float -> unit -> float * float
(** Rebuild the submarine dataset under each seed, run the uniform sweep
    point, and return (mean, stddev) of cables-failed % across dataset
    seeds — how much of the result is dataset noise. *)

val scale_a_sweep : network:Infra.Network.t -> dst_nt:float -> unit -> (float * float) list
(** [(damage scale A, expected cables failed %)] for the GIC-physical
    model at A = 5, 10, 20, 30, 60 and 120: the repeater-fragility knob
    the paper says nobody can measure yet. *)
