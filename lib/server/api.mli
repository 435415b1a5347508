(** Request parameters, canonical cache keys, and the shared
    result-to-JSON encoders behind both [solarstorm serve] and the CLI's
    [--json] output.

    One compute + encode path serves both front ends, so an HTTP
    response body is byte-identical to [solarstorm <cmd> --json] for the
    same parameters — the parity the loopback tests and [check.sh]
    assert.  Bodies are compact {!Obs.Json} documents terminated by one
    newline.

    Process-wide reuse: dataset builds go through {!Datasets.Cache},
    and whole response bodies live in an {!Lru} keyed by the canonical
    request ({!sim_key} & friends) — a repeated request is answered
    byte-identically without re-running trials.  That bounded cache is
    the only state that outlives a request: a compiled {!Stormsim.Plan}
    lives for one run.  Every entry point is safe to call from any
    number of worker domains concurrently: the result cache takes one
    lock per operation and the per-request cache outcome is
    domain-local. *)

type network = Stormsim.Sweep.network_id = Submarine | Intertubes | Itu
(** Re-export: the core sweep engine owns the network vocabulary. *)

type sim_params = Stormsim.Sweep.cell = {
  network : network;
  model : Stormsim.Failure_model.t;
  spacing_km : float;
  itu_scale : float;  (** only meaningful for {!Itu} *)
  seed : int;
  trials : int;
}
(** A simulate request is exactly one sweep cell, so the record is the
    same type — the canonical keys ({!sim_key},
    {!Stormsim.Sweep.plan_key}) stay in lockstep by construction. *)

val sim_defaults : sim_params
(** The CLI's defaults: submarine, uniform 0.01, 150 km, scale 0.3,
    seed {!Datasets.default_seed}, 10 trials. *)

val sim_of_json : sim_params -> Obs.Json.t -> (sim_params, string) result
(** Decode a [/simulate] body as a one-cell sweep: {!sweep_axes_of_json},
    then {!Stormsim.Sweep.expand} over the given base parameters, and
    [Error] unless exactly one cell comes out.  So the body takes what
    a [/sweep] grid takes (numeric strings, one-value arrays), and
    unknown keys, repeated keys, wrong types and out-of-range values
    are [Error] (the service turns them into a 400). *)

val sim_key : sim_params -> string
(** Canonical cache key; the ITU scale is normalized out for non-ITU
    networks so equivalent requests share one entry. *)

val simulate_body : sim_params -> string
(** Run the request as a one-cell {!Stormsim.Sweep.run} and encode the
    row: [{"endpoint":"simulate",] then {!Stormsim.Sweep.row_fields} —
    the cell's {!Stormsim.Sweep.row_line} with ["endpoint"] in place of
    ["cell"]. *)

type scenario_source =
  | Event of string  (** {!Spaceweather.Storm_catalog} lookup *)
  | Speed of float  (** custom CME launch speed, km/s *)

type scenario_params = {
  source : scenario_source;
  sc_seed : int;  (** dataset seed *)
  sc_trials : int;
  physical : bool;  (** also run the GIC-physical model *)
}

val scenario_defaults : scenario_params

val scenario_of_json :
  scenario_params -> Obs.Json.t -> (scenario_params, string) result
(** Fields: [event], [speed_km_s] (overrides [event]), [seed], [trials],
    [physical]. *)

val scenario_key : scenario_params -> string

val scenario : scenario_params -> (Stormsim.Scenario.t, string) result
(** Resolve the CME (a catalog event or a custom speed), build the
    submarine and Intertubes maps at [sc_seed] and run
    {!Stormsim.Scenario.run}: what [solarstorm scenario] prints.
    [Error] when the event name is not in the catalog. *)

val scenario_body : scenario_params -> (string, string) result
(** {!scenario}, encoded. *)

type countries_params = { co_seed : int; co_trials : int }

val countries_defaults : countries_params

val countries_of_json :
  countries_params -> Obs.Json.t -> (countries_params, string) result

val countries_key : countries_params -> string

val countries_body : countries_params -> string

val sweep_axes_of_json : Obs.Json.t -> (Stormsim.Sweep.axis list, string) result
(** Decode a [POST /sweep] grid: a JSON object mapping axis keys to one
    value (pinning the parameter) or an array of values (one grid
    dimension), field order = axis order.  Strict like the other
    decoders: unknown keys, wrong types and out-of-range values are
    [Error].  An empty object is zero axes (one default cell). *)

val params_of_body :
  base:'p -> of_json:('p -> Obs.Json.t -> ('p, string) result) -> string ->
  ('p, string) result
(** Decode a request body: empty/whitespace bodies mean "all defaults",
    anything else must parse as JSON and overlay cleanly. *)

val with_cache : key:string -> (unit -> (string, string) result) -> (string, string) result
(** Serve [key] from the LRU result cache, or compute, cache (successes
    only) and count.  Hits/misses/evictions land on the
    [server.cache.*] metrics (occupancy on the [server.cache.entries]
    gauge); a hit returns the stored bytes without running any trial.
    Safe from any domain — the counters are domain-sharded and exact,
    the cache locked. *)

val take_cache_outcome : unit -> [ `Hit | `Miss ] option
(** Outcome of the calling domain's most recent {!with_cache} call,
    cleared on read — each worker reads it once per request for the
    access log ([None] when the request never consulted the cache,
    e.g. [/healthz]).  Domain-local, so concurrent workers never see
    each other's outcomes. *)

val set_cache_capacity : int -> unit
(** Replace the result cache with an empty one of the given capacity
    (the [--cache-entries] flag).  Call before worker domains are
    running — the swap itself is not synchronized.
    @raise Invalid_argument if the capacity is negative. *)

val cache_length : unit -> int

val cache_capacity : unit -> int

val reset : unit -> unit
(** Drop the result cache (tests). *)
