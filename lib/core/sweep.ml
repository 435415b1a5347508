(* Grid expansion, plan-key dedup, shared-batch execution.  See the
   interface; the implementation notes that matter:

   - keys reuse the server cache-key discipline: %.17g for every float
     that feeds a key (%g would fold distinct probabilities together)
     and the ITU scale normalized out of non-ITU keys, so equivalent
     cells genuinely share a plan;
   - batches execute sequentially in first-occurrence order, trials
     parallel *within* a batch ({!Montecarlo.run_plan} over the
     persistent [Exec] pool).  What a cold multi-network grid spent
     on one core was its dataset builds, one after another inside the
     batch loop, so at [jobs > 1] the grid's distinct networks are
     built as pool tasks before the first batch.  Batches stay
     sequential: running them concurrently would hold every row
     behind a join barrier and change where [flush] falls;
   - the reorder buffer is trivial because of that ordering: cell 0's
     batch is batch 0, so after batch [b] completes every cell whose
     batch index <= b that hasn't been emitted yet is ready. *)

type network_id = Submarine | Intertubes | Itu

let network_id_to_string = function
  | Submarine -> "submarine"
  | Intertubes -> "intertubes"
  | Itu -> "itu"

let network_id_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "submarine" -> Ok Submarine
  | "intertubes" -> Ok Intertubes
  | "itu" -> Ok Itu
  | s -> Error (Printf.sprintf "unknown network %S (submarine | intertubes | itu)" s)

type cell = {
  network : network_id;
  model : Failure_model.t;
  spacing_km : float;
  itu_scale : float;
  seed : int;
  trials : int;
}

let default_cell =
  {
    network = Submarine;
    model = Failure_model.uniform 0.01;
    spacing_km = 150.0;
    itu_scale = 0.3;
    seed = Datasets.default_seed;
    trials = 10;
  }

let max_trials = 100_000
let max_cells = 65_536

(* --- axes --- *)

type raw_value = Str of string | Num of float

type axis = { key : string; sets : (cell -> cell) array }

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let num_of_raw key = function
  | Num v -> Ok v
  | Str s -> (
      match float_of_string_opt (String.trim s) with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "%S must be a number, not %S" key s))

let int_of_raw key r =
  let* v = num_of_raw key r in
  if Float.is_integer v && Float.abs v <= 1e15 then Ok (int_of_float v)
  else Error (Printf.sprintf "%S must be an integer" key)

let setter_of_raw key (r : raw_value) : (cell -> cell, string) result =
  match key with
  | "network" -> (
      match r with
      | Str s ->
          let* n = network_id_of_string s in
          Ok (fun c -> { c with network = n })
      | Num _ -> Error "\"network\" must be a network name")
  | "model" -> (
      let* m =
        match r with
        | Str s -> Failure_model.of_string s
        | Num p when p >= 0.0 && p <= 1.0 -> Ok (Failure_model.uniform p)
        | Num _ -> Error "\"model\" must be a model name or a probability in [0, 1]"
      in
      Ok (fun c -> { c with model = m }))
  | "spacing_km" ->
      let* s = num_of_raw key r in
      if Float.is_finite s && s > 0.0 then Ok (fun c -> { c with spacing_km = s })
      else Error "\"spacing_km\" must be > 0"
  | "itu_scale" ->
      let* s = num_of_raw key r in
      if Float.is_finite s && s > 0.0 && s <= 1.0 then
        Ok (fun c -> { c with itu_scale = s })
      else Error "\"itu_scale\" must be in (0, 1]"
  | "seed" ->
      let* seed = int_of_raw key r in
      Ok (fun c -> { c with seed })
  | "trials" ->
      let* t = int_of_raw key r in
      if t < 1 then Error "\"trials\" must be >= 1"
      else if t > max_trials then
        Error (Printf.sprintf "\"trials\" must be <= %d" max_trials)
      else Ok (fun c -> { c with trials = t })
  | key ->
      Error
        (Printf.sprintf
           "unknown key %S (network | model | spacing_km | itu_scale | seed | trials)"
           key)

let axis_of_raw key raws =
  let* sets =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* set = setter_of_raw key r in
        Ok (set :: acc))
      (Ok []) raws
  in
  Ok { key; sets = Array.of_list (List.rev sets) }

let axis_of_spec spec =
  match String.index_opt spec '=' with
  | None | Some 0 ->
      Error (Printf.sprintf "malformed axis %S (expected key=v1,v2,...)" spec)
  | Some i ->
      let key = String.trim (String.sub spec 0 i) in
      let values = String.sub spec (i + 1) (String.length spec - i - 1) in
      let raws =
        (* "key=" is an explicitly empty axis (zero cells); an empty
           value *between* commas is a spelling mistake, caught by the
           per-key parser. *)
        if String.trim values = "" then []
        else List.map (fun v -> Str v) (String.split_on_char ',' values)
      in
      axis_of_raw key raws

let expand ?(base = default_cell) axes =
  let* () =
    let rec dup = function
      | [] -> Ok ()
      | a :: rest ->
          if List.exists (fun b -> b.key = a.key) rest then
            Error (Printf.sprintf "%S given more than once" a.key)
          else dup rest
    in
    dup axes
  in
  let axes = Array.of_list axes in
  let* total =
    Array.fold_left
      (fun acc a ->
        let* acc = acc in
        let n = acc * Array.length a.sets in
        if n > max_cells then
          Error (Printf.sprintf "grid expands to more than %d cells" max_cells)
        else Ok n)
      (Ok 1) axes
  in
  (* First axis slowest: stride of axis j is the product of the lengths
     of the axes after it. *)
  let n_axes = Array.length axes in
  let strides = Array.make n_axes 1 in
  for j = n_axes - 2 downto 0 do
    strides.(j) <- strides.(j + 1) * Array.length axes.(j + 1).sets
  done;
  Ok
    (Array.init total (fun i ->
         let c = ref base in
         for j = 0 to n_axes - 1 do
           let len = Array.length axes.(j).sets in
           c := axes.(j).sets.((i / strides.(j)) mod len) !c
         done;
         !c))

(* --- canonical keys --- *)

let g17 v = Obs.Json.format_float "%.17g" v

let model_key m =
  let open Failure_model in
  let tiered tag high mid low mid_threshold high_threshold =
    String.concat ":" [ tag; g17 high; g17 mid; g17 low; g17 mid_threshold; g17 high_threshold ]
  in
  match m with
  | Uniform p -> "u:" ^ g17 p
  | Latitude_tiered { high; mid; low; mid_threshold; high_threshold } ->
      tiered "lt" high mid low mid_threshold high_threshold
  | Gic_physical { dst_nt; scale_a } -> String.concat ":" [ "gic"; g17 dst_nt; g17 scale_a ]
  | Geomag_tiered { high; mid; low; mid_threshold; high_threshold } ->
      tiered "gt" high mid low mid_threshold high_threshold

let network_key c =
  match c.network with
  | Itu -> String.concat ":" [ "itu"; string_of_int c.seed; g17 c.itu_scale ]
  | n -> network_id_to_string n ^ ":" ^ string_of_int c.seed

let plan_key c =
  String.concat "" [ network_key c; "|"; model_key c.model; "|spacing="; g17 c.spacing_km ]

let batch_key c = plan_key c ^ "|trials=" ^ string_of_int c.trials

(* --- execution --- *)

type row = { cell_index : int; cell : cell; stats : Montecarlo.series }

let row_fields r =
  let open Obs.Json in
  let c = r.cell in
  let s = r.stats in
  let mean_std mean std = Object [ ("mean", Number mean); ("std", Number std) ] in
  [
    ("network", String (network_id_to_string c.network));
    ("model", String (Failure_model.to_string c.model));
    ("spacing_km", Number c.spacing_km);
  ]
  @ (match c.network with Itu -> [ ("itu_scale", Number c.itu_scale) ] | _ -> [])
  @ [
      ("seed", Number (float_of_int c.seed));
      ("trials", Number (float_of_int c.trials));
      ("cables_failed_pct", mean_std s.Montecarlo.cables_mean s.Montecarlo.cables_std);
      ("nodes_unreachable_pct", mean_std s.Montecarlo.nodes_mean s.Montecarlo.nodes_std);
    ]

let row_line r =
  let open Obs.Json in
  to_string (Object (("cell", Number (float_of_int r.cell_index)) :: row_fields r)) ^ "\n"

type summary = { cells : int; rows : int; plans_compiled : int; batches : int }

let c_runs = Obs.Metrics.counter "sweep.runs"
let c_cells = Obs.Metrics.counter "sweep.cells"
let c_batches = Obs.Metrics.counter "sweep.batches"
let c_plans = Obs.Metrics.counter "sweep.plans_compiled"
let c_rows = Obs.Metrics.counter "sweep.rows_streamed"

let build_network c =
  match c.network with
  | Submarine -> Datasets.Cache.submarine ~seed:c.seed ()
  | Intertubes -> Datasets.Cache.intertubes ~seed:c.seed ()
  | Itu -> Datasets.Cache.itu ~seed:c.seed ~scale:c.itu_scale ()

(* One task per distinct network of [reps], at most [jobs] at a time;
   each lands in [Datasets.Cache], where the batches find it. *)
let prebuild ~jobs reps =
  let seen = Hashtbl.create 8 and nets = ref [] in
  Array.iter
    (fun c ->
      let k = network_key c in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        nets := c :: !nets
      end)
    reps;
  let nets = Array.of_list (List.rev !nets) in
  if Array.length nets > 1 then
    Exec.parallel_for ~chunk:1 ~jobs ~n:(Array.length nets) (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          ignore (build_network nets.(i))
        done)

let run ?jobs ?(flush = ignore) ~cells ~emit () =
  let n = Array.length cells in
  Obs.Metrics.incr c_runs;
  Obs.Metrics.add c_cells n;
  (* Group cells into batches keyed by [batch_key], numbered in first-
     occurrence order so batch order follows cell order. *)
  let batch_ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let reps = ref [] in
  let nbatches = ref 0 in
  let cell_batch =
    Array.map
      (fun c ->
        let k = batch_key c in
        match Hashtbl.find_opt batch_ids k with
        | Some b -> b
        | None ->
            let b = !nbatches in
            Hashtbl.add batch_ids k b;
            reps := c :: !reps;
            incr nbatches;
            b)
      cells
  in
  let reps = Array.of_list (List.rev !reps) in
  (match Option.value jobs ~default:(Exec.default_jobs ()) with
  | j when j > 1 -> prebuild ~jobs:j reps
  | _ -> ());
  let results : Montecarlo.series option array = Array.make !nbatches None in
  (* A plan is dropped after the last batch that uses it, so a grid
     holds only the plans still ahead of it, not every plan it has
     compiled. *)
  let rep_plan_keys = Array.map plan_key reps in
  let last_use : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri (fun b pk -> Hashtbl.replace last_use pk b) rep_plan_keys;
  let plan_tbl : (string, Plan.t) Hashtbl.t = Hashtbl.create 16 in
  let plans_compiled = ref 0 in
  let progress = Obs.Progress.start ~label:"sweep" ~total:n in
  let next = ref 0 in
  let emit_ready () =
    while
      !next < n
      && match results.(cell_batch.(!next)) with Some _ -> true | None -> false
    do
      let i = !next in
      (match results.(cell_batch.(i)) with
      | Some stats -> emit { cell_index = i; cell = cells.(i); stats }
      | None -> assert false);
      Obs.Metrics.incr c_rows;
      Obs.Progress.tick progress;
      incr next
    done
  in
  Array.iteri
    (fun b rep ->
      let pk = rep_plan_keys.(b) in
      let plan =
        match Hashtbl.find_opt plan_tbl pk with
        | Some plan -> plan
        | None ->
            let network = build_network rep in
            let plan =
              Plan.compile ~spacing_km:rep.spacing_km ~network ~model:rep.model ()
            in
            Hashtbl.add plan_tbl pk plan;
            incr plans_compiled;
            Obs.Metrics.incr c_plans;
            plan
      in
      let stats = Montecarlo.run_plan ?jobs ~trials:rep.trials ~seed:rep.seed plan in
      if Hashtbl.find last_use pk = b then Hashtbl.remove plan_tbl pk;
      Obs.Metrics.incr c_batches;
      results.(b) <- Some stats;
      emit_ready ();
      flush ())
    reps;
  Obs.Progress.finish progress;
  { cells = n; rows = !next; plans_compiled = !plans_compiled; batches = !nbatches }
