(* Sweep engine suite: grid expansion goldens (cartesian order, first
   axis slowest), axis validation, plan/batch dedup exactness (counter
   asserted), byte-identical streaming for any jobs count, and
   CLI-vs-HTTP parity — the de-chunked [POST /sweep] body must equal the
   concatenated [row_line]s the CLI prints for the same grid. *)

open Stormsim

let axis spec =
  match Sweep.axis_of_spec spec with
  | Ok a -> a
  | Error msg -> Alcotest.fail (Printf.sprintf "axis %s rejected: %s" spec msg)

let expand_ok specs =
  match Sweep.expand (List.map axis specs) with
  | Ok cells -> cells
  | Error msg -> Alcotest.fail ("expand failed: " ^ msg)

let counter_value name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

(* Counters and the server result cache are process-global; start every
   test clean and leave the layer off. *)
let with_state f =
  Obs.reset ();
  Obs.enable ();
  Server.Api.reset ();
  Fun.protect
    ~finally:(fun () ->
      Server.Api.reset ();
      Obs.disable ();
      Obs.reset ())
    f

(* --- expansion goldens --- *)

let test_expand_cartesian_order () =
  let cells = expand_ok [ "network=submarine,intertubes"; "trials=1,2" ] in
  Alcotest.(check int) "4 cells" 4 (Array.length cells);
  let got =
    Array.to_list
      (Array.map
         (fun (c : Sweep.cell) -> (Sweep.network_id_to_string c.network, c.trials))
         cells)
  in
  (* First axis varies slowest. *)
  Alcotest.(check (list (pair string int)))
    "order"
    [ ("submarine", 1); ("submarine", 2); ("intertubes", 1); ("intertubes", 2) ]
    got

let test_expand_defaults () =
  let cells = expand_ok [] in
  Alcotest.(check int) "one default cell" 1 (Array.length cells);
  let c = cells.(0) in
  Alcotest.(check bool) "is default" true (c = Sweep.default_cell);
  Alcotest.(check int) "default seed" Datasets.default_seed c.Sweep.seed

let test_expand_empty_axis () =
  let cells = expand_ok [ "trials=" ] in
  Alcotest.(check int) "zero cells" 0 (Array.length cells)

let test_expand_single_value_pins () =
  let cells = expand_ok [ "spacing_km=75"; "seed=7" ] in
  Alcotest.(check int) "one cell" 1 (Array.length cells);
  Alcotest.(check (float 0.0)) "spacing" 75.0 cells.(0).Sweep.spacing_km;
  Alcotest.(check int) "seed" 7 cells.(0).Sweep.seed

let test_expand_duplicate_key_rejected () =
  match Sweep.expand [ axis "trials=1"; axis "trials=2" ] with
  | Ok _ -> Alcotest.fail "duplicate axis key accepted"
  | Error msg -> Alcotest.(check bool) "names the key" true (String.length msg > 0)

let test_expand_max_cells_rejected () =
  (* 300 x 300 = 90_000 > max_cells; built through axis_of_raw because a
     300-value CLI spec would be absurd. *)
  let raws = List.init 300 (fun i -> Sweep.Num (float_of_int i)) in
  let seed_axis =
    match Sweep.axis_of_raw "seed" raws with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  let trials_axis =
    match Sweep.axis_of_raw "trials" (List.init 300 (fun i -> Sweep.Num (float_of_int (i + 1)))) with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  match Sweep.expand [ seed_axis; trials_axis ] with
  | Ok _ -> Alcotest.fail "oversized grid accepted"
  | Error _ -> ()

(* --- axis validation --- *)

let test_axis_rejects =
  let cases =
    [ "no-equals"; "bogus=1"; "network=mars"; "model=verybroken"; "spacing_km=-1";
      "spacing_km=nan"; "itu_scale=0"; "itu_scale=1.5"; "seed=1.5"; "trials=0";
      "trials=1000001" ]
  in
  List.map
    (fun spec ->
      Alcotest.test_case spec `Quick (fun () ->
          match Sweep.axis_of_spec spec with
          | Ok _ -> Alcotest.fail (Printf.sprintf "%s accepted" spec)
          | Error _ -> ()))
    cases

let test_axis_accepts_models () =
  let cells = expand_ok [ "model=s1,s2,physical,s1-geomag,0.25" ] in
  Alcotest.(check (list string)) "one cell per model, in order"
    (List.map Failure_model.to_string
       Failure_model.
         [ s1; s2; Gic_physical { dst_nt = -1200.0; scale_a = 30.0 }; s1_geomag; uniform 0.25 ])
    (Array.to_list (Array.map (fun (c : Sweep.cell) -> Failure_model.to_string c.model) cells))

let test_axis_of_raw_matches_spec () =
  (* JSON numbers and CLI strings must land on the same cells. *)
  let from_spec = expand_ok [ "model=0.25"; "trials=3" ] in
  let from_raw =
    let m =
      match Sweep.axis_of_raw "model" [ Sweep.Num 0.25 ] with
      | Ok a -> a
      | Error msg -> Alcotest.fail msg
    in
    let t =
      match Sweep.axis_of_raw "trials" [ Sweep.Num 3.0 ] with
      | Ok a -> a
      | Error msg -> Alcotest.fail msg
    in
    match Sweep.expand [ m; t ] with
    | Ok cells -> cells
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "same cell" true (from_spec = from_raw)

(* --- canonical keys --- *)

let test_plan_key_normalizes_itu_scale () =
  let cells = expand_ok [ "itu_scale=0.1,0.2,0.3" ] in
  let keys =
    Array.to_list (Array.map Sweep.plan_key cells) |> List.sort_uniq compare
  in
  (* Submarine never reads itu_scale, so the three cells share a plan. *)
  Alcotest.(check int) "one plan key" 1 (List.length keys);
  let itu = expand_ok [ "network=itu"; "itu_scale=0.1,0.2" ] in
  let itu_keys =
    Array.to_list (Array.map Sweep.plan_key itu) |> List.sort_uniq compare
  in
  Alcotest.(check int) "itu keeps scale" 2 (List.length itu_keys)

let test_batch_key_includes_trials () =
  let cells = expand_ok [ "trials=2,2,3" ] in
  let keys =
    Array.to_list (Array.map Sweep.batch_key cells) |> List.sort_uniq compare
  in
  Alcotest.(check int) "two batches" 2 (List.length keys);
  Alcotest.(check string) "duplicate trials share" (Sweep.batch_key cells.(0))
    (Sweep.batch_key cells.(1))

(* --- execution: dedup, determinism, ordering --- *)

(* The bench grid shape at test-sized trials: 4 models x 4 itu scales
   (normalized out on submarine) x 4 duplicate trial values = 64 cells,
   4 plans, 4 batches. *)
let grid_64 = [ "model=0.005,0.01,0.02,s1"; "itu_scale=0.1,0.2,0.3,0.4"; "trials=2,2,2,2" ]

let run_to_string ?jobs cells =
  let buf = Buffer.create 4096 in
  let summary =
    Sweep.run ?jobs ~cells () ~emit:(fun row -> Buffer.add_string buf (Sweep.row_line row))
  in
  (summary, Buffer.contents buf)

let test_dedup_counters_exact () =
  with_state @@ fun () ->
  let cells = expand_ok grid_64 in
  Alcotest.(check int) "64 cells" 64 (Array.length cells);
  let before = counter_value "sweep.plans_compiled" in
  let summary, body = run_to_string ~jobs:1 cells in
  Alcotest.(check int) "summary cells" 64 summary.Sweep.cells;
  Alcotest.(check int) "summary rows" 64 summary.Sweep.rows;
  Alcotest.(check int) "4 plans compiled" 4 summary.Sweep.plans_compiled;
  Alcotest.(check int) "4 batches" 4 summary.Sweep.batches;
  Alcotest.(check int) "counter delta exact" 4
    (counter_value "sweep.plans_compiled" - before);
  Alcotest.(check int) "cells counter" 64 (counter_value "sweep.cells");
  Alcotest.(check int) "rows counter" 64 (counter_value "sweep.rows_streamed");
  Alcotest.(check int) "64 lines" 64
    (List.length (String.split_on_char '\n' body) - 1)

let test_rows_in_cell_order () =
  let cells = expand_ok [ "model=s1,0.01"; "seed=41,42" ] in
  let seen = ref [] in
  let _ = Sweep.run ~jobs:1 ~cells () ~emit:(fun r -> seen := r.Sweep.cell_index :: !seen) in
  Alcotest.(check (list int)) "strict cell order" [ 0; 1; 2; 3 ] (List.rev !seen)

let test_jobs_byte_identity () =
  let cells = expand_ok [ "model=0.005,s1"; "seed=41,42"; "trials=6" ] in
  let _, one = run_to_string ~jobs:1 cells in
  let _, four = run_to_string ~jobs:4 cells in
  Alcotest.(check string) "jobs 1 = jobs 4" one four;
  Alcotest.(check bool) "non-empty" true (String.length one > 0)

let test_shared_batch_rows_identical () =
  let cells = expand_ok [ "trials=4,4" ] in
  let rows = ref [] in
  let _ = Sweep.run ~jobs:1 ~cells () ~emit:(fun r -> rows := r :: !rows) in
  match List.rev !rows with
  | [ a; b ] ->
      Alcotest.(check bool) "same stats" true (a.Sweep.stats = b.Sweep.stats);
      Alcotest.(check int) "indices differ" 1 (b.Sweep.cell_index - a.Sweep.cell_index)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length l))

let test_row_line_shape () =
  let cells = expand_ok [] in
  let line = ref "" in
  let _ = Sweep.run ~jobs:1 ~cells () ~emit:(fun r -> line := Sweep.row_line r) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    nn = 0 || scan 0
  in
  Alcotest.(check bool) "cell field first" true
    (String.length !line > 8 && String.sub !line 0 8 = "{\"cell\":");
  List.iter
    (fun f -> Alcotest.(check bool) f true (contains !line f))
    [ "\"network\":\"submarine\""; "\"cables_failed_pct\""; "\"nodes_unreachable_pct\"";
      "\"mean\""; "\"std\"" ];
  Alcotest.(check bool) "newline terminated" true
    (!line <> "" && !line.[String.length !line - 1] = '\n');
  (* itu_scale is unused on submarine and stays out of the row. *)
  Alcotest.(check bool) "no itu_scale field" false (contains !line "itu_scale")

(* --- pinned bytes across networks --- *)

(* MD5 of the concatenated [row_line]s at [~jobs:1], measured before the
   trial kernel started skipping death-0 cables; [bin/check.sh] reads
   [cross_network_digest] from this file and compares the CLI's
   [sweep -j 1] and [-j 2] stdout with it.  ITU at full scale has ~4 in
   5 cables that cannot die. *)
let cross_network_axes =
  [ "network=submarine,intertubes,itu"; "model=0.005,0.01,0.02,0.05,s1,s2"; "trials=50" ]

let cross_network_digest = "9d30f43bbed8062a28207db9f35c038b"

(* The same for the largest build: two full-scale ITU maps, which
   [sweep -j 2] builds concurrently.  Read before the dataset generators
   moved to a weighted sampler, an array-backed grid index and union-find
   stitching, which had to keep it; [bin/check.sh] reads
   [full_scale_itu_digest] and requires it at [-j 1] and [-j 2]. *)
let full_scale_itu_axes =
  [ "network=itu"; "itu_scale=1.0"; "seed=42,7"; "model=s1"; "trials=20" ]

let full_scale_itu_digest = "ce1dcf77eb1a997f78c8df053a4387ec"

let full_itu_axes = [ "network=itu"; "itu_scale=1.0"; "model=0.01,s1"; "trials=20" ]

let full_itu_digest = "dbb9e802665afb68eeb253b641656efc"

let test_pinned_digest (axes, rows, digest) () =
  let cells = expand_ok axes in
  let summary, body = run_to_string ~jobs:1 cells in
  Alcotest.(check int) "rows" rows summary.Sweep.rows;
  Alcotest.(check int) "one plan per cell" rows summary.Sweep.plans_compiled;
  Alcotest.(check string) "md5 of the rows" digest (Digest.to_hex (Digest.string body))

(* --- plan lifetime --- *)

let test_recurring_plan_kept () =
  (* Batches run (A,2) (B,2) (A,3) (B,3): plan A recurs after B, so it
     must survive B's batch, and each row must equal its cell run on its
     own. *)
  let cells = expand_ok [ "trials=2,3"; "model=0.01,s1" ] in
  let rows = ref [] in
  let summary = Sweep.run ~jobs:1 ~cells () ~emit:(fun r -> rows := r :: !rows) in
  Alcotest.(check int) "2 plans compiled" 2 summary.Sweep.plans_compiled;
  Alcotest.(check int) "4 batches" 4 summary.Sweep.batches;
  List.iter
    (fun (r : Sweep.row) ->
      let alone = ref None in
      ignore (Sweep.run ~jobs:1 ~cells:[| r.cell |] () ~emit:(fun a -> alone := Some a));
      match !alone with
      | Some a ->
          Alcotest.(check bool)
            (Printf.sprintf "row %d = its cell alone" r.cell_index)
            true (a.Sweep.stats = r.stats)
      | None -> Alcotest.fail "no row")
    !rows

let test_plans_released () =
  (* 40 distinct plans over one small ITU map.  Live words at the last
     row must be within one plan's own words of the first row; while
     every plan was kept until the end they grew by ~5.7 K words a plan. *)
  let spacings = String.concat "," (List.init 40 (fun i -> string_of_int (100 + i))) in
  let cells =
    expand_ok [ "network=itu"; "itu_scale=0.1"; "spacing_km=" ^ spacings; "trials=1" ]
  in
  let n = Array.length cells in
  let live = Array.make n 0 in
  let summary =
    Sweep.run ~jobs:1 ~cells () ~emit:(fun r ->
        if r.cell_index = 0 || r.cell_index = n - 1 then begin
          Gc.full_major ();
          live.(r.cell_index) <- (Gc.stat ()).Gc.live_words
        end)
  in
  Alcotest.(check int) "40 plans" 40 summary.Sweep.plans_compiled;
  let one_plan =
    let c = cells.(0) in
    let network = Datasets.Cache.itu ~seed:c.seed ~scale:c.itu_scale () in
    let plan = Plan.compile ~spacing_km:c.spacing_km ~network ~model:c.model () in
    Obj.reachable_words (Obj.repr plan) - Obj.reachable_words (Obj.repr network)
  in
  let grown = live.(n - 1) - live.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "grew %d words, one plan is %d" grown one_plan)
    true (grown < one_plan)

(* --- one simulate path --- *)

(* The six models of the golden suites. *)
let named_models =
  [ Failure_model.uniform 0.01; Failure_model.s1; Failure_model.s2; Failure_model.s1_geomag;
    Failure_model.Geomag_tiered
      { high = 0.5; mid = 0.05; low = 0.005; mid_threshold = 40.0; high_threshold = 60.0 };
    Result.get_ok (Failure_model.of_string "physical") ]

(* Seeds and ITU scales come from small pools: each distinct pair builds
   (and caches) a dataset. *)
let cell_gen =
  let open QCheck.Gen in
  let* network = oneofl [ Sweep.Submarine; Intertubes; Itu ] in
  let* itu_scale = oneofl [ 0.05; 0.1; 0.2 ] in
  let* model =
    oneof [ oneofl named_models; map Failure_model.uniform (float_bound_inclusive 1.0) ]
  in
  let* spacing_km = float_range 50.0 500.0 in
  let* seed = int_range 41 43 in
  let+ trials = int_range 1 20 in
  { Sweep.network; model; spacing_km; itu_scale; seed; trials }

let cell_arb = QCheck.make ~print:Sweep.batch_key cell_gen

let prop_simulate_is_one_cell_sweep =
  QCheck.Test.make ~name:"simulate body = one-cell sweep row" ~count:60 cell_arb (fun c ->
      let _, row = run_to_string ~jobs:1 [| c |] in
      let head = {|{"cell":0.0,|} in
      let n = String.length head in
      String.sub row 0 n = head
      && Server.Api.simulate_body c
         = {|{"endpoint":"simulate",|} ^ String.sub row n (String.length row - n))

(* Up to 2 values on each of three axes over a random base cell: grids
   of 1 to 8 cells, often sharing plans and batches. *)
let grid_arb =
  let open QCheck.Gen in
  let values pool = list_size (int_range 1 2) (oneofl pool) in
  let gen =
    let* base = cell_gen in
    let* networks = values [ "submarine"; "intertubes"; "itu" ] in
    let* models = values [ "0.01"; "0.05"; "s1"; "s2"; "physical" ] in
    let+ trials = values [ "1"; "7"; "20" ] in
    let spec key vs = key ^ "=" ^ String.concat "," vs in
    (base, [ spec "network" networks; spec "model" models; spec "trials" trials ])
  in
  QCheck.make
    ~print:(fun (base, specs) -> Sweep.batch_key base ^ " " ^ String.concat " " specs)
    gen

let prop_grid_jobs_identity =
  QCheck.Test.make ~name:"grid bytes identical for jobs 1, 2, 4" ~count:30 grid_arb
    (fun (base, specs) ->
      match Sweep.expand ~base (List.map axis specs) with
      | Error e -> QCheck.Test.fail_report e
      | Ok cells ->
          let _, one = run_to_string ~jobs:1 cells in
          Array.length cells <= 8
          && List.for_all (fun jobs -> snd (run_to_string ~jobs cells) = one) [ 2; 4 ])

(* Every flush point follows the rows of the batch it closes: one flush
   per batch, never two in a row or before the first row, the last call
   a flush, and the rows themselves those of a run without [?flush].
   The counts hold too: the grid has the product of its axis lengths as
   cells, and the run compiles one plan per distinct plan key and runs
   one batch per distinct batch key. *)
let prop_flush_per_batch =
  QCheck.Test.make ~name:"one flush per batch, after its rows" ~count:30 grid_arb
    (fun (base, specs) ->
      match Sweep.expand ~base (List.map axis specs) with
      | Error e -> QCheck.Test.fail_report e
      | Ok cells ->
          let calls = ref [] in
          let summary =
            Sweep.run ~jobs:1 ~cells
              ~flush:(fun () -> calls := None :: !calls)
              ~emit:(fun row -> calls := Some (Sweep.row_line row) :: !calls)
              ()
          in
          let calls = List.rev !calls in
          let rec flushes_follow_rows after_row = function
            | [] -> true
            | None :: rest -> after_row && flushes_follow_rows false rest
            | Some _ :: rest -> flushes_follow_rows true rest
          in
          let _, plain = run_to_string ~jobs:1 cells in
          let distinct key =
            List.length (List.sort_uniq compare (Array.to_list (Array.map key cells)))
          in
          let n_values spec = List.length (String.split_on_char ',' spec) in
          List.length (List.filter Option.is_none calls) = summary.Sweep.batches
          && flushes_follow_rows false calls
          && List.nth calls (List.length calls - 1) = None
          && String.concat "" (List.filter_map Fun.id calls) = plain
          && Array.length cells = List.fold_left (fun n spec -> n * n_values spec) 1 specs
          && summary.Sweep.cells = Array.length cells
          && summary.Sweep.plans_compiled = distinct Sweep.plan_key
          && summary.Sweep.batches = distinct Sweep.batch_key)

(* --- keys and model names, against the Printf originals --- *)

(* The spellings before they called [caml_format_float] directly; kept
   as oracles. *)
let printf_model_key m =
  let open Failure_model in
  match m with
  | Uniform p -> Printf.sprintf "u:%.17g" p
  | Latitude_tiered { high; mid; low; mid_threshold; high_threshold } ->
      Printf.sprintf "lt:%.17g:%.17g:%.17g:%.17g:%.17g" high mid low mid_threshold
        high_threshold
  | Gic_physical { dst_nt; scale_a } -> Printf.sprintf "gic:%.17g:%.17g" dst_nt scale_a
  | Geomag_tiered { high; mid; low; mid_threshold; high_threshold } ->
      Printf.sprintf "gt:%.17g:%.17g:%.17g:%.17g:%.17g" high mid low mid_threshold
        high_threshold

let printf_plan_key (c : Sweep.cell) =
  let network_key =
    match c.network with
    | Sweep.Itu -> Printf.sprintf "itu:%d:%.17g" c.seed c.itu_scale
    | n -> Printf.sprintf "%s:%d" (Sweep.network_id_to_string n) c.seed
  in
  Printf.sprintf "%s|%s|spacing=%.17g" network_key (printf_model_key c.model) c.spacing_km

let printf_batch_key (c : Sweep.cell) = Printf.sprintf "%s|trials=%d" (printf_plan_key c) c.trials

let printf_sim_key (c : Sweep.cell) =
  Printf.sprintf "simulate|%s|trials=%d" (printf_plan_key c) c.trials

let printf_model_name = function
  | Failure_model.Uniform p -> Printf.sprintf "uniform(%g)" p
  | Latitude_tiered { high; mid; low; _ } -> Printf.sprintf "tiered[%g; %g; %g]" high mid low
  | Gic_physical { dst_nt; scale_a } ->
      Printf.sprintf "gic-physical(Dst=%g, scale=%gA)" dst_nt scale_a
  | Geomag_tiered { high; mid; low; _ } ->
      Printf.sprintf "geomag-tiered[%g; %g; %g]" high mid low

(* Any float at all (keys are pure, so nothing need be a valid cell),
   with probabilities and integral values weighted in. *)
let key_float =
  let open QCheck.Gen in
  oneof
    [ map Int64.float_of_bits int64; float; float_bound_inclusive 1.0;
      map float_of_int (int_range (-100_000) 100_000);
      oneofl [ 0.0; -0.0; 1e15; 0x1p53; Float.nan; Float.infinity; Float.neg_infinity ] ]

(* Each case builds every model constructor on every network from the
   same generated fields, so all twelve pairings are checked every time. *)
let prop_keys_match_printf =
  let open QCheck.Gen in
  let gen =
    let* f = array_size (return 7) key_float in
    let* seed = int in
    let+ trials = int in
    (f, seed, trials)
  in
  let print (f, seed, trials) =
    Printf.sprintf "[%s] seed %d trials %d"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") f)))
      seed trials
  in
  QCheck.Test.make ~name:"keys and model names = Printf spellings" ~count:300
    (QCheck.make ~print gen) (fun (f, seed, trials) ->
      let high = f.(0) and mid = f.(1) and low = f.(2) in
      let mid_threshold = f.(3) and high_threshold = f.(4) in
      let models =
        Failure_model.
          [ Uniform f.(0);
            Latitude_tiered { high; mid; low; mid_threshold; high_threshold };
            Gic_physical { dst_nt = f.(5); scale_a = f.(6) };
            Geomag_tiered { high; mid; low; mid_threshold; high_threshold } ]
      in
      List.for_all
        (fun model ->
          Failure_model.to_string model = printf_model_name model
          && List.for_all
               (fun network ->
                 let c =
                   { Sweep.network; model; spacing_km = f.(6); itu_scale = f.(5); seed; trials }
                 in
                 Sweep.plan_key c = printf_plan_key c
                 && Sweep.batch_key c = printf_batch_key c
                 && Server.Api.sim_key c = printf_sim_key c)
               [ Sweep.Submarine; Intertubes; Itu ])
        models)

(* --- HTTP: POST /sweep --- *)

let dispatch ?(body = "") target =
  Server.Router.dispatch
    ~routes:(Server.Handlers.routes ())
    { Server.Http.meth = Server.Http.POST; target; version = "HTTP/1.1"; headers = [];
      body }

let test_http_parity_with_cli () =
  with_state @@ fun () ->
  (* Same grid, CLI-shaped and JSON-shaped. *)
  let cells = expand_ok [ "model=0.005,0.01"; "trials=3,3" ] in
  let _, cli = run_to_string ~jobs:1 cells in
  let reply = dispatch ~body:"{\"model\":[0.005,0.01],\"trials\":[3,3]}" "/sweep" in
  (match reply with
  | Server.Router.Stream s ->
      Alcotest.(check int) "status 200" 200 s.Server.Router.s_status;
      Alcotest.(check string) "ndjson" "application/x-ndjson"
        s.Server.Router.s_content_type
  | Server.Router.Response _ -> Alcotest.fail "expected a stream");
  let resp = Server.Router.to_response reply in
  Alcotest.(check string) "HTTP body = CLI bytes" cli resp.Server.Http.body;
  Alcotest.(check int) "served counters" 4
    (counter_value "server.sweep.cells");
  Alcotest.(check int) "served rows" 4 (counter_value "server.sweep.rows_streamed");
  Alcotest.(check int) "served plans" 2 (counter_value "server.sweep.plans_compiled")

let test_http_empty_body_is_default_cell () =
  with_state @@ fun () ->
  let resp = Server.Router.to_response (dispatch ~body:"" "/sweep") in
  Alcotest.(check int) "status" 200 resp.Server.Http.status;
  let cells = expand_ok [] in
  let _, cli = run_to_string ~jobs:1 cells in
  Alcotest.(check string) "single default row" cli resp.Server.Http.body

let test_http_empty_axis_streams_nothing () =
  with_state @@ fun () ->
  let resp = Server.Router.to_response (dispatch ~body:"{\"trials\":[]}" "/sweep") in
  Alcotest.(check int) "status" 200 resp.Server.Http.status;
  Alcotest.(check string) "empty body" "" resp.Server.Http.body

let test_http_bad_grids_are_400 () =
  with_state @@ fun () ->
  List.iter
    (fun body ->
      match dispatch ~body "/sweep" with
      | Server.Router.Response r ->
          Alcotest.(check int) (Printf.sprintf "400 for %s" body) 400
            r.Server.Http.status
      | Server.Router.Stream _ ->
          Alcotest.fail (Printf.sprintf "bad grid %s streamed" body))
    [ "{"; "[1,2]"; "\"grid\""; "{\"bogus\":[1]}"; "{\"trials\":[0]}";
      "{\"model\":{}}"; "{\"trials\":[true]}"; "{\"trials\":1,\"trials\":2}" ]

(* /simulate decodes its body as a one-cell grid: each body gives the
   cell a /sweep of it runs, or a 400 from both endpoints. *)
let test_http_simulate_decodes_as_sweep () =
  with_state @@ fun () ->
  List.iter
    (fun body ->
      let sim = Server.Router.to_response (dispatch ~body "/simulate") in
      let sweep = Server.Router.to_response (dispatch ~body "/sweep") in
      match (sim.Server.Http.status, sweep.Server.Http.status) with
      | 200, 200 ->
          let tail ~head s =
            let n = String.length head in
            Alcotest.(check string) (body ^ " head") head (String.sub s 0 n);
            String.sub s n (String.length s - n)
          in
          Alcotest.(check string) (body ^ " same cell")
            (tail ~head:{|{"cell":0.0,|} sweep.Server.Http.body)
            (tail ~head:{|{"endpoint":"simulate",|} sim.Server.Http.body)
      | 400, 400 -> ()
      | s, w -> Alcotest.failf "%s: /simulate %d, /sweep %d" body s w)
    [ {|{"spacing_km":"150"}|}; {|{"trials":2,"trials":3}|}; {|{"seed":"7"}|};
      {|{"seed":[7],"model":"s1"}|}; {|{"bogus":1}|} ]

let test_http_tiny_spacing () =
  (* 1e-300 km must give the 1e-12 km result: the repeater count
     saturates instead of wrapping past max_int. *)
  with_state @@ fun () ->
  let resp =
    Server.Router.to_response (dispatch ~body:{|{"spacing_km":[1e-300,1e-12]}|} "/sweep")
  in
  Alcotest.(check int) "status" 200 resp.Server.Http.status;
  let stats line =
    match Obs.Json.parse line with
    | Error e -> Alcotest.fail e
    | Ok doc ->
        List.map
          (fun k -> Option.map Obs.Json.to_string (Obs.Json.member k doc))
          [ "cables_failed_pct"; "nodes_unreachable_pct" ]
  in
  match String.split_on_char '\n' resp.Server.Http.body with
  | [ tiny; small; "" ] ->
      Alcotest.(check (list (option string))) "1e-300 km = 1e-12 km" (stats small)
        (stats tiny);
      Alcotest.(check (option string)) "every cable failed"
        (Some {|{"mean":100.0,"std":0.0}|})
        (List.hd (stats tiny))
  | lines -> Alcotest.failf "expected 2 rows, got %d lines" (List.length lines)

let test_http_sweep_wrong_method_405 () =
  with_state @@ fun () ->
  let resp =
    Server.Router.to_response
      (Server.Router.dispatch
         ~routes:(Server.Handlers.routes ())
         { Server.Http.meth = Server.Http.GET; target = "/sweep"; version = "HTTP/1.1";
           headers = []; body = "" })
  in
  Alcotest.(check int) "405" 405 resp.Server.Http.status

let () =
  Alcotest.run "sweep"
    [
      ( "expansion",
        [ Alcotest.test_case "cartesian order" `Quick test_expand_cartesian_order;
          Alcotest.test_case "no axes -> default cell" `Quick test_expand_defaults;
          Alcotest.test_case "empty axis -> zero cells" `Quick test_expand_empty_axis;
          Alcotest.test_case "single value pins" `Quick test_expand_single_value_pins;
          Alcotest.test_case "duplicate key rejected" `Quick
            test_expand_duplicate_key_rejected;
          Alcotest.test_case "max_cells rejected" `Quick test_expand_max_cells_rejected ]
      );
      ("axis validation (rejects)", test_axis_rejects);
      ( "axis validation (accepts)",
        [ Alcotest.test_case "model forms" `Quick test_axis_accepts_models;
          Alcotest.test_case "raw = spec" `Quick test_axis_of_raw_matches_spec ] );
      ( "canonical keys",
        [ Alcotest.test_case "itu_scale normalized out" `Quick
            test_plan_key_normalizes_itu_scale;
          Alcotest.test_case "batch key includes trials" `Quick
            test_batch_key_includes_trials;
          QCheck_alcotest.to_alcotest prop_keys_match_printf ] );
      ( "execution",
        [ Alcotest.test_case "dedup counters exact" `Quick test_dedup_counters_exact;
          Alcotest.test_case "rows in cell order" `Quick test_rows_in_cell_order;
          Alcotest.test_case "jobs byte identity" `Quick test_jobs_byte_identity;
          Alcotest.test_case "shared batch rows identical" `Quick
            test_shared_batch_rows_identical;
          Alcotest.test_case "row line shape" `Quick test_row_line_shape;
          Alcotest.test_case "recurring plan kept" `Quick test_recurring_plan_kept;
          Alcotest.test_case "plans released" `Quick test_plans_released;
          QCheck_alcotest.to_alcotest prop_grid_jobs_identity;
          QCheck_alcotest.to_alcotest prop_flush_per_batch ] );
      ( "simulate",
        [ QCheck_alcotest.to_alcotest prop_simulate_is_one_cell_sweep ] );
      ( "pinned bytes",
        [ Alcotest.test_case "cross-network grid" `Quick
            (test_pinned_digest (cross_network_axes, 18, cross_network_digest));
          Alcotest.test_case "full-scale ITU" `Quick
            (test_pinned_digest (full_itu_axes, 2, full_itu_digest));
          Alcotest.test_case "full-scale ITU, two seeds" `Quick
            (test_pinned_digest (full_scale_itu_axes, 2, full_scale_itu_digest)) ] );
      ( "http",
        [ Alcotest.test_case "parity with CLI" `Quick test_http_parity_with_cli;
          Alcotest.test_case "empty body -> default cell" `Quick
            test_http_empty_body_is_default_cell;
          Alcotest.test_case "empty axis -> empty stream" `Quick
            test_http_empty_axis_streams_nothing;
          Alcotest.test_case "bad grids are 400" `Quick test_http_bad_grids_are_400;
          Alcotest.test_case "/simulate decodes as a one-cell sweep" `Quick
            test_http_simulate_decodes_as_sweep;
          Alcotest.test_case "tiny spacing saturates" `Quick test_http_tiny_spacing;
          Alcotest.test_case "GET /sweep is 405" `Quick test_http_sweep_wrong_method_405 ]
      );
    ]
