(* Parameter decoding, canonical keys, compute + encode.  See the
   interface; the invariants that matter here:

   - keys must be collision-free (two requests with different results
     must never share a key), so every float that feeds a key prints
     with %.17g and the model key spells out every constructor field —
     [Failure_model.to_string]'s %g would fold distinct probabilities
     together;
   - keys should be canonical (two requests with the same result should
     share a key when cheap to arrange), so the ITU scale is normalized
     out of non-ITU keys;
   - encoders build {!Obs.Json} values and serialize compactly, so the
     CLI's [--json] output and the HTTP body are the same bytes by
     construction. *)

open Obs.Json

(* The network vocabulary and simulate-parameter record are owned by
   the core sweep engine — a sweep cell IS a simulate request — so both
   layers share one type and one canonical-key discipline. *)
type network = Stormsim.Sweep.network_id = Submarine | Intertubes | Itu

type sim_params = Stormsim.Sweep.cell = {
  network : network;
  model : Stormsim.Failure_model.t;
  spacing_km : float;
  itu_scale : float;
  seed : int;
  trials : int;
}

let sim_defaults = Stormsim.Sweep.default_cell

type scenario_source = Event of string | Speed of float

type scenario_params = {
  source : scenario_source;
  sc_seed : int;
  sc_trials : int;
  physical : bool;
}

let scenario_defaults =
  { source = Event "carrington"; sc_seed = Datasets.default_seed; sc_trials = 10;
    physical = false }

type countries_params = { co_seed : int; co_trials : int }

let countries_defaults = { co_seed = Datasets.default_seed; co_trials = 10 }

(* --- JSON field decoding --- *)

(* Trials are the one knob that multiplies work without bound, so the
   service refuses absurd values instead of grinding on them. *)
let max_trials = Stormsim.Sweep.max_trials

let as_int name = function
  | Number v when Float.is_integer v && Float.abs v <= 1e15 -> Ok (int_of_float v)
  | _ -> Error (Printf.sprintf "field %S must be an integer" name)

let as_float name = function
  | Number v -> Ok v
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

let as_string name = function
  | String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let as_bool name = function
  | Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let check_trials t =
  if t < 1 then Error "field \"trials\" must be >= 1"
  else if t > max_trials then
    Error (Printf.sprintf "field \"trials\" must be <= %d" max_trials)
  else Ok t

let fold_object ~name step base = function
  | Object kvs ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          step acc k v)
        (Ok base) kvs
  | _ -> Error (Printf.sprintf "%s request body must be a JSON object" name)

let scenario_of_json base j =
  let step p k v =
    match k with
    | "event" ->
        let* e = as_string k v in
        Ok { p with source = Event (String.lowercase_ascii (String.trim e)) }
    | "speed_km_s" ->
        let* s = as_float k v in
        if Float.is_finite s && s > 0.0 then Ok { p with source = Speed s }
        else Error "field \"speed_km_s\" must be > 0"
    | "seed" ->
        let* sc_seed = as_int k v in
        Ok { p with sc_seed }
    | "trials" ->
        let* t = as_int k v in
        let* sc_trials = check_trials t in
        Ok { p with sc_trials }
    | "physical" ->
        let* physical = as_bool k v in
        Ok { p with physical }
    | k -> Error (Printf.sprintf "unknown field %S" k)
  in
  fold_object ~name:"scenario" step base j

let countries_of_json base j =
  let step p k v =
    match k with
    | "seed" ->
        let* co_seed = as_int k v in
        Ok { p with co_seed }
    | "trials" ->
        let* t = as_int k v in
        let* co_trials = check_trials t in
        Ok { p with co_trials }
    | k -> Error (Printf.sprintf "unknown field %S" k)
  in
  fold_object ~name:"countries" step base j

(* A sweep grid: a JSON object mapping axis keys to either one value
   (pinning the parameter) or an array of values (one grid dimension).
   Field order is axis order — it decides the cartesian nesting, so it
   is preserved, not sorted. *)
let sweep_axes_of_json j =
  let raw name = function
    | Number v -> Ok (Stormsim.Sweep.Num v)
    | String s -> Ok (Stormsim.Sweep.Str s)
    | _ -> Error (Printf.sprintf "%S values must be numbers or strings" name)
  in
  match j with
  | Object kvs ->
      let* axes =
        List.fold_left
          (fun acc (k, v) ->
            let* axes = acc in
            let* raws =
              match v with
              | Array vs ->
                  List.fold_left
                    (fun acc v ->
                      let* acc = acc in
                      let* r = raw k v in
                      Ok (r :: acc))
                    (Ok []) vs
                  |> Result.map List.rev
              | (Number _ | String _) as v ->
                  let* r = raw k v in
                  Ok [ r ]
              | _ ->
                  Error
                    (Printf.sprintf "%S must be a number, a string or an array of them" k)
            in
            let* axis = Stormsim.Sweep.axis_of_raw k raws in
            Ok (axis :: axes))
          (Ok []) kvs
      in
      Ok (List.rev axes)
  | _ -> Error "request body must be a JSON object"

(* A simulate request is a one-cell sweep, so it decodes as one: the
   grid's validators over [base], and exactly one cell out. *)
let sim_of_json base j =
  let* axes = sweep_axes_of_json j in
  let* cells = Stormsim.Sweep.expand ~base axes in
  match cells with
  | [| cell |] -> Ok cell
  | cells ->
      Error
        (Printf.sprintf "simulate takes one value per key, not a grid of %d cells"
           (Array.length cells))

let params_of_body ~base ~of_json body =
  if String.trim body = "" then Ok base
  else
    match Obs.Json.parse body with
    | Error e -> Error ("invalid JSON body: " ^ e)
    | Ok j -> of_json base j

(* --- canonical keys (the float/normalization discipline lives in
   {!Stormsim.Sweep}, shared with the sweep engine's plan dedup) --- *)

let sim_key p =
  String.concat "" [ "simulate|"; Stormsim.Sweep.plan_key p; "|trials="; string_of_int p.trials ]

let scenario_key p =
  let source =
    match p.source with
    | Event e -> "event=" ^ e
    | Speed v -> Printf.sprintf "speed=%.17g" v
  in
  Printf.sprintf "scenario|%s|seed=%d|trials=%d|physical=%b" source p.sc_seed
    p.sc_trials p.physical

let countries_key p =
  Printf.sprintf "countries|seed=%d|trials=%d" p.co_seed p.co_trials

(* --- the result cache --- *)

let hits = Obs.Metrics.counter "server.cache.hits"
let misses = Obs.Metrics.counter "server.cache.misses"
let evictions = Obs.Metrics.counter "server.cache.evictions"
let entries_gauge = Obs.Metrics.gauge "server.cache.entries"

(* N worker domains consult the result cache concurrently; {!Lru}
   locks each operation.  The ref swap in [set_cache_capacity] happens
   before the service boots its workers. *)
let result_cache = ref (Lru.create ~capacity:128)

let sync_entries () =
  Obs.Metrics.set entries_gauge (float_of_int (Lru.length !result_cache))

let set_cache_capacity n =
  result_cache := Lru.create ~capacity:n;
  sync_entries ()

let cache_length () = Lru.length !result_cache

let cache_capacity () = Lru.capacity !result_cache

(* The outcome of the most recent [with_cache] call, for the service's
   access log.  Domain-local: each worker domain serves one request at
   a time, so its own cell is single-writer, and workers never see each
   other's outcomes. *)
let outcome_key : [ `Hit | `Miss ] option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let take_cache_outcome () =
  let cell = Domain.DLS.get outcome_key in
  let o = !cell in
  cell := None;
  o

let reset () =
  Lru.clear !result_cache;
  sync_entries ();
  Domain.DLS.get outcome_key := None

let with_cache ~key compute =
  let outcome = Domain.DLS.get outcome_key in
  match Lru.find !result_cache key with
  | Some body ->
      Obs.Metrics.incr hits;
      outcome := Some `Hit;
      Ok body
  | None -> (
      Obs.Metrics.incr misses;
      outcome := Some `Miss;
      match compute () with
      | Error _ as e -> e
      | Ok body ->
          (match Lru.add !result_cache key body with
          | Some _ -> Obs.Metrics.incr evictions
          | None -> ());
          sync_entries ();
          Ok body)

(* --- compute + encode --- *)

let doc fields = Obs.Json.to_string (Object fields) ^ "\n"

(* A simulate request is a one-cell sweep: the same run, and the row's
   fields behind an ["endpoint"] head instead of its ["cell"] index. *)
let simulate_body p =
  let body = ref "" in
  ignore
    (Stormsim.Sweep.run ~cells:[| p |] () ~emit:(fun row ->
         body := doc (("endpoint", String "simulate") :: Stormsim.Sweep.row_fields row)));
  !body

let scenario_body p =
  let cme =
    match p.source with
    | Speed v -> Ok (Spaceweather.Cme.make ~speed_km_s:v ())
    | Event name -> (
        match Spaceweather.Storm_catalog.find name with
        | Some e -> Ok e.Spaceweather.Storm_catalog.cme
        | None -> Error (Printf.sprintf "unknown event %S" name))
  in
  let* cme = cme in
  let networks =
    [
      ("submarine", Datasets.Cache.submarine ~seed:p.sc_seed ());
      ("intertubes", Datasets.Cache.intertubes ~seed:p.sc_seed ());
    ]
  in
  let s =
    Stormsim.Scenario.run ~trials:p.sc_trials ~use_physical:p.physical ~cme ~networks ()
  in
  let impact (i : Stormsim.Scenario.impact) =
    Object
      [
        ("network", String i.Stormsim.Scenario.network);
        ("model", String (Stormsim.Failure_model.to_string i.Stormsim.Scenario.model));
        ("cables_failed_pct", Number i.Stormsim.Scenario.cables_failed_pct);
        ("nodes_unreachable_pct", Number i.Stormsim.Scenario.nodes_unreachable_pct);
      ]
  in
  let tl = s.Stormsim.Scenario.timeline in
  Ok
    (doc
       ([ ("endpoint", String "scenario") ]
       @ (match p.source with
         | Event e -> [ ("event", String e) ]
         | Speed v -> [ ("speed_km_s", Number v) ])
       @ [
           ("cme_speed_km_s", Number s.Stormsim.Scenario.cme.Spaceweather.Cme.speed_km_s);
           ("dst_nt", Number s.Stormsim.Scenario.dst_nt);
           ( "severity",
             String (Spaceweather.Dst.severity_to_string s.Stormsim.Scenario.severity) );
           ( "timeline",
             Object
               [
                 ( "detection_delay_h",
                   Number tl.Spaceweather.Forecast.detection_delay_h );
                 ("transit_h", Number tl.Spaceweather.Forecast.transit_h);
                 ( "l1_confirmation_h",
                   Number tl.Spaceweather.Forecast.l1_confirmation_h );
                 ( "actionable_lead_h",
                   Number tl.Spaceweather.Forecast.actionable_lead_h );
               ] );
           ("seed", Number (float_of_int p.sc_seed));
           ("trials", Number (float_of_int p.sc_trials));
           ("physical", Bool p.physical);
           ("impacts", Array (List.map impact s.Stormsim.Scenario.impacts));
         ]))

let countries_body p =
  let net = Datasets.Cache.submarine ~seed:p.co_seed () in
  let findings = Stormsim.Country.run_all ~trials:p.co_trials net in
  let finding (f : Stormsim.Country.finding) =
    Object
      [
        ("id", String f.Stormsim.Country.spec.Stormsim.Country.id);
        ("state", String f.Stormsim.Country.spec.Stormsim.Country.state_name);
        ("loss_probability", Number f.Stormsim.Country.loss_probability);
        ("direct_cables", Number (float_of_int f.Stormsim.Country.direct_cables));
        ("expectation", String f.Stormsim.Country.spec.Stormsim.Country.expectation);
      ]
  in
  doc
    [
      ("endpoint", String "countries");
      ("seed", Number (float_of_int p.co_seed));
      ("trials", Number (float_of_int p.co_trials));
      ("findings", Array (List.map finding findings));
    ]
