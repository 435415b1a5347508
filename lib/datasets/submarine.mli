(** Submarine cable map (substitute for the TeleGeography dataset).

    ≈ 115 real major cable systems are embedded with their actual landing
    cities and stated lengths — these carry the long tail of the length
    distribution and all the country-level connectivity structure the
    paper's §4.3.4 case studies depend on (US–Europe trunks, Ellalink,
    Columbus-III, SEA-ME-WE 3, the Singapore hub, ...).  Synthetic festoon
    chains around coastal hubs fill the dataset out to the published
    counts: 470 cables and 1241 landing points, with the length CDF
    calibrated to the paper's quantiles (median ≈ 775 km, p99 ≈ 28,000 km,
    max 39,000 km). *)

val target_cables : int
(** 470. *)

val target_landing_points : int
(** 1241. *)

val build : ?seed:int -> unit -> Infra.Network.t
(** Deterministic synthetic submarine network (default seed 42). *)

val hub_node : Infra.Network.t -> string -> int option
(** Node id of a real landing city by name ([None] for cities without a
    landing).  Satellite landing stations are named ["<city> LS-<k>"] and
    are not returned by this lookup. *)

val nodes_in_country : Infra.Network.t -> string -> int list
(** All landing nodes (hubs and satellites) in a country. *)
