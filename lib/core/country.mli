(** Country-scale connectivity case studies (§4.3.4).

    Each finding measures, over Monte-Carlo trials of a failure state, the
    probability that two groups of landing nodes lose connectivity —
    either {e direct} (no surviving cable lands in both groups) or
    {e routed} (no surviving multi-hop path in the submarine graph) — or
    that a city keeps any long-haul cable at all.  The finding carries
    the paper's qualitative expectation for EXPERIMENTS.md. *)

type metric =
  | Direct_loss  (** every cable landing in both groups is dead *)
  | Routed_loss  (** no surviving path between the groups *)
  | Long_haul_isolated of float
      (** every cable of at least the given length landing in group A is
          dead (group B unused) *)

type spec = {
  id : string;
  description : string;
  group_a : string list;  (** country names or [city:<name>] hub selectors *)
  group_b : string list;
  metric : metric;
  state : Failure_model.t;
  state_name : string;
  expectation : string;  (** the paper's qualitative claim *)
}

type finding = {
  spec : spec;
  loss_probability : float;  (** fraction of trials the metric fired *)
  direct_cables : int;  (** cables landing in both groups (context) *)
}

val paper_case_studies : spec list
(** The §4.3.4 case studies: US coasts, China/Shanghai, India, Singapore,
    UK, South Africa, Australia/New Zealand, Brazil, Hawaii, Alaska. *)

val resolve_group : Infra.Network.t -> string list -> int list
(** Country names resolve through node country labels; ["city:Name"]
    selectors resolve through {!Datasets.Submarine.hub_node}. *)

val evaluate : ?trials:int -> Infra.Network.t -> spec -> finding
(** Monte-Carlo evaluation of one case study (default 50 trials,
    repeaters every 150 km).  Trials run on {!Plan.run_trials_par} at
    seed [23 + Hashtbl.hash spec.id] on {!Exec.default_jobs} workers:
    the same result for any [--jobs]. *)

val run_all : ?trials:int -> Infra.Network.t -> finding list
(** Evaluate every paper case study. *)
