type phase = Begin | End

type event = {
  name : string;
  phase : phase;
  t_ns : int64;
  depth : int;
  domain : int;
  trace : string; (* "" = no trace context *)
}

let clock = ref Clock.monotonic
let set_clock c = clock := c
let now () = !clock ()

(* Per-domain trace context.  The serving layer runs N requests
   concurrently on N worker domains, each under its own trace id, so the
   context must be domain-local: a process-wide slot would let one
   request's id bleed into another's spans.  Domain-local storage (one
   mutable cell per domain, single-writer) makes [with_trace] safe under
   any concurrency; spawning a domain does NOT inherit the parent's
   context — whoever spawns must capture [current_trace] and re-install
   it in the child ({!Exec.parallel_for} does exactly that for its
   workers, which is how a request's id still reaches
   [exec.worker]/[plan.chunk] spans). *)
let trace_key : string ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref "")

let current_trace () = !(Domain.DLS.get trace_key)

let with_trace id f =
  let cell = Domain.DLS.get trace_key in
  let prev = !cell in
  cell := id;
  Fun.protect ~finally:(fun () -> cell := prev) f

let default_capacity = 65_536

(* Per-domain ring buffers: cheap push, bounded memory, no cross-domain
   contention.  Each domain owns exactly one ring (single-writer), found
   through domain-local storage; a global registry (mutex-protected, but
   only touched on first use per domain and at snapshot time) lets
   [events]/[reset] see every ring.  When a worker domain exits its ring
   is parked on a free pool and the next spawned domain reuses it, so
   memory is bounded by the peak number of concurrent domains, not by
   the total number ever spawned — and events recorded by exited domains
   stay readable until their slots are overwritten (each event carries
   its own domain id, so reuse never mis-attributes). *)
let dummy = { name = ""; phase = Begin; t_ns = 0L; depth = 0; domain = -1; trace = "" }

type ring = {
  mutable buf : event array;
  mutable next : int; (* slot for the next push *)
  mutable total : int; (* events pushed since last reset *)
  mutable depth : int; (* nesting depth of the owning domain *)
}

let capacity = ref default_capacity
let make_ring () = { buf = Array.make !capacity dummy; next = 0; total = 0; depth = 0 }

let lock = Mutex.create ()
let rings : ring list ref = ref [] (* every ring ever handed out *)
let pool : ring list ref = ref [] (* rings released by exited domains *)

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let checkout () =
  locked @@ fun () ->
  match !pool with
  | r :: rest ->
      pool := rest;
      r.depth <- 0;
      r
  | [] ->
      let r = make_ring () in
      rings := r :: !rings;
      r

let release r = locked (fun () -> pool := r :: !pool)

let key : ring option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let my_ring () =
  match Domain.DLS.get key with
  | Some r -> r
  | None ->
      let r = checkout () in
      Domain.DLS.set key (Some r);
      (* The main domain keeps its ring for the life of the process;
         worker domains hand theirs back for reuse when they exit. *)
      if not (Domain.is_main_domain ()) then Domain.at_exit (fun () -> release r);
      r

let set_capacity n =
  if n <= 0 then invalid_arg "Obs.Span.set_capacity: capacity <= 0";
  locked @@ fun () ->
  capacity := n;
  List.iter
    (fun r ->
      r.buf <- Array.make n dummy;
      r.next <- 0;
      r.total <- 0)
    !rings

let reset () =
  locked @@ fun () ->
  List.iter
    (fun r ->
      Array.fill r.buf 0 (Array.length r.buf) dummy;
      r.next <- 0;
      r.total <- 0;
      r.depth <- 0)
    !rings

let push r ev =
  let cap = Array.length r.buf in
  r.buf.(r.next) <- ev;
  r.next <- (r.next + 1) mod cap;
  r.total <- r.total + 1

let dropped () =
  locked @@ fun () ->
  List.fold_left (fun acc r -> acc + Int.max 0 (r.total - Array.length r.buf)) 0 !rings

let ring_events r =
  let cap = Array.length r.buf in
  let n = Int.min r.total cap in
  let start = if r.total <= cap then 0 else r.next in
  List.init n (fun i -> r.buf.((start + i) mod cap))

let events () =
  (* Merge every ring's retained events into one chronological stream.
     The sort is stable, so within one domain (one ring) the push order
     is preserved even under a non-advancing manual clock; take the
     snapshot while no parallel section is running (Exec joins every
     domain before returning) so no ring is being written concurrently. *)
  let all = locked (fun () -> List.concat_map ring_events !rings) in
  List.stable_sort
    (fun a b ->
      match Int64.compare a.t_ns b.t_ns with 0 -> compare a.domain b.domain | c -> c)
    all

let with_ ~name f =
  if not (Atomic.get Control.flag) then f ()
  else begin
    let r = my_ring () in
    let dom = (Domain.self () :> int) in
    let d = r.depth in
    (* Resource gauges bracket top-level spans on the main domain: cheap
       (Gc.quick_stat, no heap walk) and coarse enough to stay off the
       per-trial hot path of worker domains. *)
    if d = 0 && Domain.is_main_domain () then Resource.sample ();
    (* Capture the trace once so Begin and End always agree, even if [f]
       switches contexts. *)
    let trace = current_trace () in
    push r { name; phase = Begin; t_ns = now (); depth = d; domain = dom; trace };
    r.depth <- d + 1;
    Fun.protect
      ~finally:(fun () ->
        r.depth <- d;
        push r { name; phase = End; t_ns = now (); depth = d; domain = dom; trace };
        if d = 0 && Domain.is_main_domain () then Resource.sample ())
      f
  end

type summary = { span_name : string; calls : int; total_ns : int64 }

let summarize evs =
  (* Pair Begin/End events with one stack per domain (the merged stream
     interleaves domains); unmatched events — still-open spans, or spans
     whose Begin was overwritten by a ring wrap — are ignored, so a
     wrapped ring can never corrupt the pairing of surviving spans. *)
  let acc : (string, int * int64) Hashtbl.t = Hashtbl.create 16 in
  let stacks : (int, event list ref) Hashtbl.t = Hashtbl.create 4 in
  let stack_of dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks dom s;
        s
  in
  List.iter
    (fun ev ->
      let stack = stack_of ev.domain in
      match ev.phase with
      | Begin -> stack := ev :: !stack
      | End -> (
          match !stack with
          | b :: rest when b.name = ev.name && b.depth = ev.depth ->
              stack := rest;
              let dt = Int64.sub ev.t_ns b.t_ns in
              let calls, tot =
                Option.value ~default:(0, 0L) (Hashtbl.find_opt acc ev.name)
              in
              Hashtbl.replace acc ev.name (calls + 1, Int64.add tot dt)
          | _ -> ()))
    evs;
  Hashtbl.fold
    (fun span_name (calls, total_ns) out -> { span_name; calls; total_ns } :: out)
    acc []
  |> List.sort (fun a b -> String.compare a.span_name b.span_name)
