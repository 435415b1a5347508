(** Time-resolved storm profiles.

    Geomagnetic storms have a characteristic shape: a sudden commencement
    when the CME shock arrives, a main phase of hours during which Dst
    collapses, and an exponential recovery over one to several days.  The
    shutdown planner uses the profile to size the protection window. *)

type profile = {
  dst_min : float;  (** depth of the main phase, nT (≤ 0) *)
  onset_h : float;  (** hours from shock arrival to the start of the drop *)
  main_phase_h : float;  (** drop duration (2–12 h; faster when deep) *)
  recovery_tau_h : float;  (** e-folding recovery time *)
}

val default : dst_min:float -> profile
(** Empirical shape: deeper storms develop faster and recover slower
    (main phase 8 h at −100 nT down to ~4 h at Carrington depth; recovery
    tau 15–40 h).  @raise Invalid_argument if [dst_min > 0.]. *)

val dst_at : profile -> t_h:float -> float
(** Dst at [t_h] hours after shock arrival: 0 before onset, then a
    linear drop to [dst_min] at [onset_h + main_phase_h], then an
    exponential recovery. *)

val duration_below : profile -> dst_threshold:float -> float
(** Hours during which Dst ≤ [dst_threshold] (e.g. how long the storm
    stays in the "severe" band).  0 when never reached. *)
