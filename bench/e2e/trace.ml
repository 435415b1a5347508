(* Spans recorded by the benchmark itself around its calls into the
   program's layers (the program's own Obs spans stay off during the
   replay).  Kept in memory and written out once, as Chrome trace JSON,
   when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root *)
  req : int;  (** the replayed request this span belongs to; [-1] for kernels *)
  ops : int;  (** calls covered: kernels time a batch and divide *)
  t0 : int64;
  mutable t1 : int64;
}

let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let record ?(req = -1) ?(ops = 1) ~parent name t0 t1 =
  let s = { id = !next_id; name; parent; req; ops; t0; t1 } in
  incr next_id;
  spans := s :: !spans;
  s

let with_span ?req ?ops name f =
  let parent, inherited =
    match !stack with p :: _ -> (p.id, p.req) | [] -> (-1, -1)
  in
  let req = Option.value req ~default:inherited in
  let s = record ~req ?ops ~parent name (Monotonic_clock.now ()) 0L in
  stack := s :: !stack;
  let v =
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Monotonic_clock.now ();
        stack := List.tl !stack)
      f
  in
  (v, s)

let with_ ?req ?ops name f = fst (with_span ?req ?ops name f)

let dur_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* [f] under a span; returns the span's duration in nanoseconds. *)
let timed ?req ?ops name f = dur_ns (snd (with_span ?req ?ops name f))

(* Self time of every span: its duration minus the part its children
   cover (children never overlap — the replay is single-threaded). *)
let self_ns () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ns s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s -> (s, dur_ns s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    !spans

let chrome () =
  let t_base = List.fold_left (fun m s -> Int64.min m s.t0) Int64.max_int !spans in
  let us t = Int64.to_float (Int64.sub t t_base) /. 1e3 in
  let open Obs.Json in
  let event (s, self) =
    Object
      [
        ("name", String s.name);
        ("ph", String "X");
        ("ts", Number (us s.t0));
        ("dur", Number (us s.t1 -. us s.t0));
        ("pid", Number 1.0);
        ("tid", Number 1.0);
        ( "args",
          Object
            [
              ("id", Number (float_of_int s.id));
              ("parent", Number (float_of_int s.parent));
              ("req", Number (float_of_int s.req));
              ("ops", Number (float_of_int s.ops));
              ("self_us", Number (self /. 1e3));
            ] );
      ]
  in
  to_string (Object [ ("traceEvents", Array (List.rev_map event (self_ns ()))) ]) ^ "\n"
