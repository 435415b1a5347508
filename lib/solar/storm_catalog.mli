(** Historical geomagnetic storms referenced in §2.2 of the paper. *)

type event = {
  name : string;
  year : int;
  month : int;
  dst_nt : float;  (** estimated minimum Dst, nT *)
  cme : Cme.t;
  hit_earth : bool;
  notes : string;
}

val all : event list
(** Chronological list of the catalogued events. *)

val strongest : event
(** The strongest Earth-impacting event on record (Carrington). *)

val find : string -> event option
(** Case-insensitive lookup by name substring. *)

val severity : event -> Dst.severity
