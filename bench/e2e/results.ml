(* The result line a run prints, the trajectory files [record] writes,
   and the two readers of both: [compare] (parent vs change) and
   [smoke] (names and units against BENCHMARK.json). *)

let catalogue ~trace = if trace then Workload.layer_metrics else Workload.e2e_metrics

(* The last stdout line of a run.  Values print with every digit; a
   value that is not finite cannot be reported, so it fails the run. *)
let line (o : Runner.outcome) ~trace =
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) o.metrics in
  let metric (name, unit) =
    let v = Option.value ~default:Float.nan (List.assoc_opt name o.metrics) in
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name
      (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
      unit
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (o.correct && finite) o.attempted o.failed
    (String.concat ", " (List.map metric (catalogue ~trace)))

let parse_line s =
  match Obs.Json.parse (String.trim s) with
  | Ok j -> j
  | Error e -> failwith ("unparseable result line: " ^ e)

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> failwith "run printed no result"

(* Runs [driver.exe] itself on one workload, as the outside harness
   would, and returns its parsed result line. *)
let run_child ~bin ~workload ~seed ~seconds ~trace =
  let p =
    Runner.run_proc ~env:(Unix.environment ()) Sys.executable_name
      [
        "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; seconds;
        "--trace"; (if trace then "1" else "0"); "--bin"; bin;
      ]
  in
  prerr_string p.Runner.err;
  parse_line (last_line p.Runner.out)

(* --- BENCHMARK.json --- *)

type metric = { m_name : string; m_unit : string; higher_better : bool; bound : float option }

type bench = { workloads : string list; e2e : metric list; layers : metric list }

let load_bench path =
  let j =
    match Obs.Json.parse_file path with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)
  in
  let list k = Option.value ~default:[] (Option.bind (Obs.Json.member k j) Obs.Json.array) in
  let str k o = Option.bind (Obs.Json.member k o) Obs.Json.string_ in
  let metric o =
    {
      m_name = Option.get (str "name" o);
      m_unit = Option.get (str "unit" o);
      higher_better = str "better" o = Some "higher";
      bound = Option.bind (Obs.Json.member "bound" o) Obs.Json.number;
    }
  in
  {
    workloads = List.filter_map (str "name") (list "workloads");
    e2e = List.map metric (list "end_to_end");
    layers = List.map metric (list "per_layer");
  }

(* --- trajectory files --- *)

let record ~bin ~bench ~seed ~seconds ~traced ~out =
  let runs =
    List.concat_map
      (fun workload ->
        List.map
          (fun trace ->
            Obs.Json.Object
              [
                ("workload", Obs.Json.String workload);
                ("trace", Obs.Json.Number (if trace then 1.0 else 0.0));
                ("result", run_child ~bin ~workload ~seed ~seconds ~trace);
              ])
          (if traced then [ false; true ] else [ false ]))
      bench.workloads
  in
  let doc =
    Obs.Json.Object
      [
        ("schema", Obs.Json.String "solarstorm-e2e/1");
        ("seed", Obs.Json.Number (float_of_int seed));
        ("run_seconds", Obs.Json.Number (float_of_string seconds));
        ("nproc", Obs.Json.Number (float_of_int (Exec.available_jobs ())));
        ("ocaml", Obs.Json.String Sys.ocaml_version);
        ("runs", Obs.Json.Array runs);
      ]
  in
  Out_channel.with_open_text out (fun oc ->
      output_string oc (Obs.Json.to_string ~pretty:true doc);
      output_char oc '\n')

(* (workload, trace, result) triples of one trajectory file. *)
let load_runs path =
  let j =
    match Obs.Json.parse_file path with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)
  in
  List.filter_map
    (fun r ->
      match
        ( Option.bind (Obs.Json.member "workload" r) Obs.Json.string_,
          Option.bind (Obs.Json.member "trace" r) Obs.Json.number,
          Obs.Json.member "result" r )
      with
      | Some w, Some t, Some res -> Some (w, t = 1.0, res)
      | _ -> None)
    (Option.value ~default:[] (Option.bind (Obs.Json.member "runs" j) Obs.Json.array))

let value res name =
  Option.bind (Obs.Json.member "metrics" res) (fun m ->
      Option.bind (Obs.Json.member name m) (fun v ->
          Option.bind (Obs.Json.member "value" v) Obs.Json.number))

let failed_count runs =
  List.fold_left
    (fun acc (_, _, res) ->
      acc + int_of_float (Option.value ~default:0.0 (Option.bind (Obs.Json.member "failed" res) Obs.Json.number)))
    0 runs

(* --- compare --- *)

type verdict = Improved | Worse | Unchanged | Unresolved | Info

let verdict_name = function
  | Improved -> "improved"
  | Worse -> "WORSE"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"
  | Info -> "-"

(* The rules of the repo's benchmark guide: a gain needs the change to
   win 9/10 of the pairs and move the median by more than the parent's
   own interquartile range; a regression is a median worse than the
   parent's by more than the bound; a spread wider than the bound
   leaves the metric unresolved unless every change run beats every
   parent run. *)
let judge (m : metric) ~parent ~change =
  let better a b = if m.higher_better then a > b else a < b in
  let pairs = Int.min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better change.(i) parent.(i) then incr wins
  done;
  let pm = Stats.median parent and cm = Stats.median change in
  let q1, q3 = Stats.quartiles parent in
  let worse_by = (if m.higher_better then pm -. cm else cm -. pm) /. pm in
  let verdict =
    match m.bound with
    | None -> Info
    | Some bound ->
        let all_better =
          Array.for_all (fun c -> Array.for_all (fun p -> better c p) parent) change
        in
        if pairs > 0
           && float_of_int !wins >= 0.9 *. float_of_int pairs
           && Float.abs (cm -. pm) > q3 -. q1
        then Improved
        else if worse_by > bound then Worse
        else if (q3 -. q1) /. pm > bound && not all_better then Unresolved
        else Unchanged
  in
  (verdict, !wins, pairs)

let compare ~bench ~parent_files ~change_files =
  let parent = List.map load_runs parent_files and change = List.map load_runs change_files in
  let values side workload trace name =
    Array.of_list
      (List.concat_map
         (List.filter_map (fun (w, t, res) ->
              if w = workload && t = trace then value res name else None))
         side)
  in
  let regressed = ref false in
  let row workload trace (m : metric) =
    let p = values parent workload trace m.m_name and c = values change workload trace m.m_name in
    if Array.length p > 0 && Array.length c > 0 then begin
      let verdict, wins, pairs = judge m ~parent:p ~change:c in
      if verdict = Worse then regressed := true;
      let pq1, pq3 = Stats.quartiles p and cq1, cq3 = Stats.quartiles c in
      let pm = Stats.median p and cm = Stats.median c in
      Printf.printf "%-12s %-28s %12.5g [%.5g %.5g] %12.5g [%.5g %.5g] %+7.1f%% %3d/%-3d %s\n"
        workload m.m_name pm pq1 pq3 cm cq1 cq3
        (100.0 *. (cm -. pm) /. pm)
        wins pairs (verdict_name verdict)
    end
  in
  Printf.printf "%-12s %-28s %12s %-17s %12s %-17s %8s %7s %s\n" "workload" "metric" "parent"
    "[q1 q3]" "change" "[q1 q3]" "delta" "wins" "verdict";
  List.iter
    (fun w ->
      List.iter (row w false) bench.e2e;
      List.iter (row w true) bench.layers)
    bench.workloads;
  let pf = List.fold_left (fun a r -> a + failed_count r) 0 parent in
  let cf = List.fold_left (fun a r -> a + failed_count r) 0 change in
  Printf.printf "failed operations: parent %d, change %d\n" pf cf;
  not (!regressed || cf > pf)

(* --- smoke --- *)

let smoke ~bin ~bench ~seconds =
  let known = List.map Workload.name Workload.all in
  let ok = ref (List.sort Stdlib.compare bench.workloads = List.sort Stdlib.compare known) in
  if not !ok then prerr_endline "smoke: BENCHMARK.json workloads differ from the driver's";
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let declared = if trace then bench.layers else bench.e2e in
          let res = run_child ~bin ~workload ~seed:1 ~seconds ~trace in
          let emitted =
            match Obs.Json.member "metrics" res with
            | Some (Obs.Json.Object kvs) ->
                List.map
                  (fun (k, v) ->
                    (k, Option.value ~default:"" (Option.bind (Obs.Json.member "unit" v) Obs.Json.string_)))
                  kvs
            | _ -> []
          in
          let want = List.map (fun m -> (m.m_name, m.m_unit)) declared in
          let names_ok = List.sort Stdlib.compare emitted = List.sort Stdlib.compare want in
          let correct = Obs.Json.member "correct" res = Some (Obs.Json.Bool true) in
          Printf.printf "smoke %-12s trace=%d  %d metrics  names %s  correct %b\n%!" workload
            (if trace then 1 else 0) (List.length emitted)
            (if names_ok then "match" else "DIFFER")
            correct;
          if not (names_ok && correct) then ok := false)
        [ false; true ])
    bench.workloads;
  !ok
