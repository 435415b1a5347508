let available_jobs () = Domain.recommended_domain_count ()

(* The process-wide default: an explicit [set_default_jobs] (the CLI
   [--jobs] flag) wins over the SOLARSTORM_JOBS environment variable,
   which wins over sequential.  Atomic so a worker domain reading the
   default mid-run is not a data race. *)
let override = Atomic.make 0 (* 0 = unset *)

let env_jobs () =
  match Sys.getenv_opt "SOLARSTORM_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j > 0 -> Some j
      | _ -> None)

let default_jobs () =
  match Atomic.get override with
  | j when j > 0 -> j
  | _ -> Option.value ~default:1 (env_jobs ())

let set_default_jobs j =
  if j <= 0 then invalid_arg "Exec.set_default_jobs: jobs <= 0";
  Atomic.set override j

let par_sections = Obs.Metrics.counter "exec.parallel_sections"
let domains_spawned = Obs.Metrics.counter "exec.domains_spawned"

(* --- Persistent worker pool -------------------------------------------

   Spawning a domain costs a runtime handshake plus fresh minor heap —
   hundreds of microseconds — which the old spawn-per-call design paid
   [jobs - 1] times per parallel section.  On the ~20 ms trial kernel
   that fixed cost (and the matching join latency) made 4 domains a
   *loss*.  Workers are now spawned lazily, once, and kept for the life
   of the process.

   Shape: one global mutex guards the pool bookkeeping (open job list,
   helper counts, idle count, shutdown flag).  A parallel section is a
   [job] record published onto [open_jobs]; idle workers scan the list
   for a job that still has unclaimed chunks and wants more helpers,
   attach, and run the same chunked work-stealing loop as the caller.
   The *caller always participates* — helpers are strictly optional —
   so a section completes even when every pool worker is busy on other
   jobs.  A [parallel_for] from inside a body publishes no job at all:
   it runs inline on the domain that opened it (see [in_section]).

   Completion: [remaining] counts unfinished chunks; the caller waits on
   [done_cond] until its job has zero attached helpers and either zero
   remaining chunks or a recorded failure, so no [body] invocation ever
   outlives the call that issued it.  The first exception wins the
   [failed] slot (CAS) and stops further chunk claims; the calling
   domain's own exception still takes precedence when re-raising,
   matching the spawn-per-call semantics.

   Shutdown: a [Stdlib.at_exit] hook (registered at first spawn) flips
   [stopping], wakes the pool and joins every worker, so the process
   never exits with runnable domains leaked. *)

type job = {
  chunk : int;
  n : int;
  nchunks : int;
  body : lo:int -> hi:int -> unit;
  trace : string; (* caller's trace context, re-installed in helpers *)
  cursor : int Atomic.t; (* next chunk index to claim *)
  remaining : int Atomic.t; (* chunks not yet completed *)
  failed : exn option Atomic.t; (* first exception from any participant *)
  mutable helpers : int; (* pool domains currently attached (lock) *)
  helpers_wanted : int;
}

let lock = Mutex.create ()
let work_cond = Condition.create () (* workers: work published / shutdown *)
let done_cond = Condition.create () (* callers: a helper detached *)
let open_jobs : job list ref = ref []
let pool : unit Domain.t list ref = ref []
let spawned = ref 0
let idle = ref 0
let stopping = ref false

(* Far below the runtime's ~128-domain ceiling even with a multi-worker
   [solarstorm serve] pool alongside. *)
let max_pool = 30

let pool_size () =
  Mutex.lock lock;
  let s = !spawned in
  Mutex.unlock lock;
  s

(* Set while this domain runs a section body.  A section opened from
   inside a body runs inline: its domain is already one of the section's
   participants, and opening a second section would only ask the pool
   for helpers that are busy with the first — [ensure_helpers] counts
   idle workers, so it would spawn new domains instead. *)
let in_section = Domain.DLS.new_key (fun () -> false)

(* Run the stealing loop of [job] on the current domain.  Returns the
   exception this participant's body raised, if any, after recording it
   in [job.failed] (first writer wins) so other participants stop
   claiming chunks. *)
let execute job =
  let steal_all () =
    (* The span makes every participating domain visible to the profiler
       (per-domain rings) even when work-stealing leaves a domain
       empty-handed; when obs is off it is a single branch. *)
    Obs.Span.with_ ~name:"exec.worker" @@ fun () ->
    let rec steal () =
      if Atomic.get job.failed = None then begin
        let c = Atomic.fetch_and_add job.cursor 1 in
        if c < job.nchunks then begin
          let lo = c * job.chunk in
          job.body ~lo ~hi:(Int.min job.n (lo + job.chunk));
          ignore (Atomic.fetch_and_add job.remaining (-1));
          steal ()
        end
      end
    in
    steal ()
  in
  let run () =
    (* Trace context is domain-local (see {!Obs.Span.with_trace}), so a
       pool worker picking up this job does not carry the caller's
       request id.  Re-install it so one request's [exec.worker] /
       [plan.chunk] spans stay attributable when N requests run plans
       concurrently on N server domains. *)
    if job.trace = "" then steal_all () else Obs.Span.with_trace job.trace steal_all
  in
  Domain.DLS.set in_section true;
  let r =
    try
      run ();
      None
    with e ->
      ignore (Atomic.compare_and_set job.failed None (Some e));
      Some e
  in
  Domain.DLS.set in_section false;
  r

let attachable j =
  j.helpers < j.helpers_wanted
  && Atomic.get j.failed = None
  && Atomic.get j.cursor < j.nchunks

(* The lock is held from a helper's detach until it waits again as
   idle, so a caller woken by the detach already counts it as idle: a
   section that follows at the same width reuses it instead of spawning. *)
let worker_main () =
  Mutex.lock lock;
  let rec loop () =
    if !stopping then Mutex.unlock lock
    else
      match List.find_opt attachable !open_jobs with
      | Some j ->
          j.helpers <- j.helpers + 1;
          Mutex.unlock lock;
          ignore (execute j : exn option);
          Mutex.lock lock;
          j.helpers <- j.helpers - 1;
          Condition.broadcast done_cond;
          loop ()
      | None ->
          incr idle;
          Condition.wait work_cond lock;
          decr idle;
          loop ()
  in
  loop ()

let shutdown_pool () =
  Mutex.lock lock;
  stopping := true;
  Condition.broadcast work_cond;
  let ds = !pool in
  pool := [];
  Mutex.unlock lock;
  List.iter Domain.join ds

let at_exit_registered = ref false (* guarded by [lock] *)

(* Call with [lock] held. *)
let spawn_worker () =
  if not !at_exit_registered then begin
    at_exit_registered := true;
    Stdlib.at_exit shutdown_pool
  end;
  incr spawned;
  Obs.Metrics.incr domains_spawned;
  pool := Domain.spawn worker_main :: !pool

(* Call with [lock] held: grow the pool so [wanted] helpers could attach,
   counting currently idle workers as available and respecting the cap.
   Busy workers are not counted — two concurrent sections then share the
   pool rather than doubling it, which is fine because helpers are
   optional. *)
let ensure_helpers wanted =
  let shortfall = Int.min (wanted - !idle) (max_pool - !spawned) in
  for _ = 1 to shortfall do
    spawn_worker ()
  done

let parallel_for ?chunk ~jobs ~n body =
  if jobs <= 0 then invalid_arg "Exec.parallel_for: jobs <= 0";
  if n < 0 then invalid_arg "Exec.parallel_for: n < 0";
  if n = 0 then ()
  else if jobs = 1 || n = 1 || Domain.DLS.get in_section then body ~lo:0 ~hi:n
  else begin
    let jobs = Int.min jobs n in
    let chunk =
      match chunk with
      | Some c ->
          if c <= 0 then invalid_arg "Exec.parallel_for: chunk <= 0";
          c
      | None -> Int.max 1 (n / (8 * jobs))
    in
    let nchunks = (n + chunk - 1) / chunk in
    let job =
      {
        chunk;
        n;
        nchunks;
        body;
        trace = Obs.Span.current_trace ();
        cursor = Atomic.make 0;
        remaining = Atomic.make nchunks;
        failed = Atomic.make None;
        helpers = 0;
        helpers_wanted = jobs - 1;
      }
    in
    Obs.Metrics.incr par_sections;
    Mutex.lock lock;
    (* FIFO: earlier sections get first pick of idle workers. *)
    open_jobs := !open_jobs @ [ job ];
    ensure_helpers (jobs - 1);
    Condition.broadcast work_cond;
    Mutex.unlock lock;
    let caller_exn = execute job in
    Mutex.lock lock;
    while
      not (job.helpers = 0 && (Atomic.get job.remaining = 0 || Atomic.get job.failed <> None))
    do
      Condition.wait done_cond lock
    done;
    open_jobs := List.filter (fun j -> j != job) !open_jobs;
    Mutex.unlock lock;
    match caller_exn with
    | Some e -> raise e
    | None -> ( match Atomic.get job.failed with Some e -> raise e | None -> ())
  end
