(** Scenario sweeps: parameter grids as a first-class streaming
    workload.

    The paper's contribution is a {e space} of outcomes — failure
    probability × storm intensity × infrastructure assumptions — not one
    storm.  A sweep turns that space into a grid: a list of {!axis}
    values over the simulate parameters ([network], [model],
    [spacing_km], [itu_scale], [seed], [trials]), expanded into the
    cartesian product of {!cell}s, executed, and streamed back one JSONL
    {!row} per cell.

    Three properties define the engine:

    - {b Plan dedup.}  Cells are grouped by canonical {!plan_key}, so
      each distinct [(network, model, spacing)] triple compiles exactly
      one {!Plan.t} no matter how many cells share it, and cells that
      are statistically identical ({!batch_key}: same plan {e and} same
      trial count) share one [run_trials_par] pass — the per-cell
      statistics fan out of a single batch.  A plan is dropped after the
      last batch that uses it, so a run holds only the plans still ahead
      of it, however many distinct plans the grid has.
    - {b Determinism.}  Trials run on the persistent {!Exec} domain
      pool ([jobs] only changes how many domains sample), batches run
      in first-occurrence order, and rows are emitted in cell order
      through a reorder buffer — the streamed bytes are identical for
      any [jobs] count.
    - {b Streaming.}  [emit] fires as soon as a cell's batch completes,
      so a 1000-cell sweep shows progress instead of a long silence.

    A simulate request ([/simulate], [solarstorm simulate]) is a
    one-cell sweep: it runs through {!run} and encodes its row with
    {!row_fields}.

    Counters: [sweep.runs], [sweep.cells], [sweep.batches],
    [sweep.plans_compiled] and [sweep.rows_streamed] land on
    {!Obs.Metrics}; a [sweep] progress run ticks once per emitted row.
    Both count simulate requests too. *)

type network_id = Submarine | Intertubes | Itu

val network_id_to_string : network_id -> string

type cell = {
  network : network_id;
  model : Failure_model.t;
  spacing_km : float;
  itu_scale : float;  (** only meaningful for {!Itu} *)
  seed : int;  (** dataset build seed and trial seed *)
  trials : int;
}

val default_cell : cell
(** The service defaults: submarine, uniform 0.01, 150 km, scale 0.3,
    seed {!Datasets.default_seed}, 10 trials. *)

val max_trials : int
(** Per-cell trial-count cap (100_000) — trials multiply work without
    bound, so absurd values are refused at parse time. *)

(** {2 Axes and expansion} *)

type raw_value = Str of string | Num of float
(** One axis value before per-key validation: CLI flags arrive as
    {!Str}, JSON numbers as {!Num} (JSON strings as {!Str}). *)

type axis
(** One validated grid dimension: a parameter key plus the values it
    ranges over.  Duplicate values are legal (they expand into distinct
    cells that collapse into one batch); an empty axis expands to zero
    cells. *)

val axis_key : axis -> string

val axis_length : axis -> int

val axis_of_raw : string -> raw_value list -> (axis, string) result
(** Validate one axis: the key must be one of [network | model |
    spacing_km | itu_scale | seed | trials] and every value must parse
    for that key ([model] accepts model names and bare probabilities;
    numeric keys accept {!Num} or numeric strings). *)

val axis_of_spec : string -> (axis, string) result
(** Parse a CLI axis spec ["key=v1,v2,..."].  A single value pins the
    parameter; an empty value list (["key="]) makes an empty axis. *)

val expand : ?base:cell -> axis list -> (cell array, string) result
(** Cartesian product over [base] (default {!default_cell}): the first
    axis varies slowest, the last fastest — the nesting order of the
    flags/fields as given.  No axes means the single [base] cell.
    [Error] on a repeated axis key or a product over 65,536 cells. *)

(** {2 Canonical keys} *)

val plan_key : cell -> string
(** [(network key, model key, spacing_km)] — two cells with equal plan
    keys share one compiled {!Plan.t}.  The network key is the dataset's
    identity: name and build seed, with the ITU scale only for {!Itu}
    (it is normalized out of other keys so equivalent cells share a
    plan).  The model key prints every constructor field with [%.17g]
    ({!Obs.Json.format_float}, shared with the server's cache keys), so
    distinct models never collide. *)

val batch_key : cell -> string
(** {!plan_key} + trial count.  Equal batch keys mean statistically
    identical cells (the trial seed is the dataset seed, already in the
    network key): they share one trial batch. *)

(** {2 Execution} *)

type row = { cell_index : int; cell : cell; stats : Montecarlo.series }

val row_fields : row -> (string * Obs.Json.t) list
(** The cell's parameters and statistics as JSON fields, in output
    order: the one encoding of a cell result, shared by {!row_line} and
    the [/simulate] body. *)

val row_line : row -> string
(** [{"cell":i,] then {!row_fields}, as one compact JSON line
    ([\n]-terminated). *)

type summary = {
  cells : int;
  rows : int;  (** rows emitted — always [cells] on success *)
  plans_compiled : int;  (** distinct plans this run compiled *)
  batches : int;  (** trial batches run — [<= cells] when keys repeat *)
}

val run :
  ?jobs:int ->
  ?flush:(unit -> unit) ->
  cells:cell array ->
  emit:(row -> unit) ->
  unit ->
  summary
(** Execute a sweep.  Batches run sequentially in first-occurrence
    order; each batch's trials are parallelized over [jobs] (default
    {!Exec.default_jobs}) worker domains.  At [jobs > 1], a grid that
    names more than one distinct network key first builds those
    networks concurrently, one {!Exec} task each, so its first row waits
    for every build.  [emit] receives rows in
    strict cell order, each as soon as its batch has completed —
    byte-identical output for any [jobs].  [flush] (default: nothing)
    is called once after each batch, when that batch's rows — at least
    one, the batch's first cell — have all been emitted: the point
    where a consumer that buffers rows should deliver them, since no
    further row comes before the next batch's trials have run.  An
    exception from [emit] or [flush] abandons the remaining batches.
    @raise Invalid_argument via the trial engine if a cell is invalid
    (cells built by {!expand} are always valid). *)
