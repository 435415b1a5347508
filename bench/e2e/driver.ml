(* End-to-end benchmark driver.  [bash bench/e2e/run.sh] builds it and the
   CLI, then passes its arguments here (with [--bin]).

     driver.exe --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
         one run; the last stdout line is the result object
     driver.exe record --seed N --seconds S --out FILE [--traced]
         every workload of BENCHMARK.json once, as a trajectory file
     driver.exe compare --parent FILE... --change FILE...
         medians, quartiles, win share and verdict per workload x metric;
         exits 1 on a regression or more failed operations
     driver.exe smoke --seconds S
         every workload traced and untraced; exits 1 unless each run is
         correct and emits exactly the names BENCHMARK.json declares *)

open E2e

let usage () =
  prerr_endline
    "usage: driver.exe [record|compare|smoke] --bin SOLARSTORM [--workload W] [--seed N] \
     [--seconds S] [--trace 0|1] [--trace-out FILE] [--out FILE] [--traced] \
     [--benchmark BENCHMARK.json] [--parent FILE...] [--change FILE...]";
  exit 2

(* "--key v1 v2 ..." groups; a key without values is a flag. *)
let parse_opts args =
  let rec go acc = function
    | [] -> acc
    | k :: rest when String.starts_with ~prefix:"--" k ->
        let rec values vs = function
          | v :: rest when not (String.starts_with ~prefix:"--" v) -> values (v :: vs) rest
          | rest -> (List.rev vs, rest)
        in
        let vs, rest = values [] rest in
        go ((String.sub k 2 (String.length k - 2), vs) :: acc) rest
    | _ -> usage ()
  in
  go [] args

let () =
  let cmd, rest =
    match List.tl (Array.to_list Sys.argv) with
    | c :: rest when not (String.starts_with ~prefix:"-" c) -> (c, rest)
    | rest -> ("run", rest)
  in
  let opts = parse_opts rest in
  let many k = Option.value ~default:[] (List.assoc_opt k opts) in
  let one k = match many k with [ v ] -> Some v | _ -> None in
  let need k = match one k with Some v -> v | None -> usage () in
  let int_opt k = match int_of_string_opt (need k) with Some n -> n | None -> usage () in
  let seconds () =
    match float_of_string_opt (need "seconds") with
    | Some s when s > 0.0 && Float.is_finite s -> s
    | _ -> usage ()
  in
  let bench () = Results.load_bench (Option.value ~default:"BENCHMARK.json" (one "benchmark")) in
  match cmd with
  | "run" ->
      let workload =
        match Workload.of_name (need "workload") with Some w -> w | None -> usage ()
      in
      let trace = match need "trace" with "0" -> false | "1" -> true | _ -> usage () in
      let seed = int_opt "seed" and seconds = seconds () in
      let o =
        Runner.run ~bin:(need "bin") workload ~seed ~seconds ~trace ~trace_out:(one "trace-out")
      in
      print_endline (Results.line o ~trace);
      exit (if o.correct then 0 else 1)
  | "record" ->
      ignore (seconds ());
      Results.record ~bin:(need "bin") ~bench:(bench ()) ~seed:(int_opt "seed")
        ~seconds:(need "seconds") ~traced:(List.mem_assoc "traced" opts) ~out:(need "out")
  | "compare" ->
      let parent_files = many "parent" and change_files = many "change" in
      if parent_files = [] || change_files = [] then usage ();
      exit (if Results.compare ~bench:(bench ()) ~parent_files ~change_files then 0 else 1)
  | "smoke" ->
      ignore (seconds ());
      exit
        (if Results.smoke ~bin:(need "bin") ~bench:(bench ()) ~seconds:(need "seconds") then 0
         else 1)
  | _ -> usage ()
