(** Power-feeding equipment (PFE) budget for a repeatered cable (§3.2.1).

    PFEs at the landing stations drive a regulated ≈ 1.1 A through the
    power-feeding line (≈ 0.8 Ω/km).  The paper's anchor: a 9,000 km,
    96-wave cable needs ≈ 11 kV and ≈ 130 repeaters. *)

type budget = {
  line_voltage_v : float;  (** IR drop along the conductor *)
  repeater_voltage_v : float;  (** series drop across the repeaters *)
  margin_v : float;  (** earth-potential + spares margin *)
  total_v : float;
  repeaters : int;
}

val budget_for : length_km:float -> unit -> budget
(** Voltage budget for a cable with repeaters every 70 km (transoceanic
    practice, giving ≈ 128 repeaters for 9,000 km).
    @raise Invalid_argument on non-positive length. *)

val dual_end_feasible : budget -> bool
(** Whether two PFEs (one per end, each limited to 15 kV) can power the
    cable. *)

val max_span_km : unit -> float
(** Longest cable the dual-end feed can power under the model, km. *)
