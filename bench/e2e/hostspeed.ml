(* How fast the host runs right now.  The machines this benchmark runs
   on are shared: for stretches of seconds to minutes their CPUs run up
   to about 1.8x slower than their best, with no steal time to show for
   it, as other tenants load the host.  A run that lands in a slow
   stretch would otherwise read as a regression of the program.

   The probe runs two fixed kernels of its own — text formatting and
   hashing, and a small Monte Carlo over a random graph (Bernoulli draws,
   then a breadth-first search) — on both CPUs at once and takes the CPU
   time they used, so the program's threads, which share the CPUs, do
   not lengthen it.  [slowdown ()] is that time over [reference_ns]:
   1.0 at the reference speed, 1.5 on a host half again as slow.  The
   runner divides each end-to-end time by the slowdown measured around
   it.  Neither kernel alone tracks every workload: text alone
   over-corrected serve-miss, whose requests are mostly random draws and
   graph walks.  Together, on that machine, they cut the spread of every
   end-to-end time over ten runs from up to 25% to under 8%. *)

let text () =
  let b = Buffer.create 256 in
  let acc = ref 0 in
  for i = 1 to 350 do
    Buffer.clear b;
    for j = 1 to 8 do
      Buffer.add_string b (string_of_float (float_of_int (i * j) *. 0.37));
      Buffer.add_char b ','
    done;
    acc := !acc lxor Hashtbl.hash (Buffer.contents b)
  done;
  !acc

(* A random multigraph in compressed adjacency form, each edge with a
   failure probability below 0.2. *)
let nodes = 2000
let edges = 6000

let graph =
  lazy
    (let st = Random.State.make [| 7 |] in
     let src = Array.init edges (fun _ -> Random.State.int st nodes) in
     let dst = Array.init edges (fun _ -> Random.State.int st nodes) in
     let p = Array.init edges (fun _ -> Random.State.float st 0.2) in
     let first = Array.make (nodes + 1) 0 in
     let bump v = first.(v + 1) <- first.(v + 1) + 1 in
     Array.iter bump src;
     Array.iter bump dst;
     for v = 1 to nodes do
       first.(v) <- first.(v) + first.(v - 1)
     done;
     let fill = Array.copy first in
     let adj = Array.make (2 * edges) 0 and edge = Array.make (2 * edges) 0 in
     let link e a b =
       adj.(fill.(a)) <- b;
       edge.(fill.(a)) <- e;
       fill.(a) <- fill.(a) + 1
     in
     Array.iteri
       (fun e s ->
         link e s dst.(e);
         link e dst.(e) s)
       src;
     (first, adj, edge, p))

(* Trials of: every edge fails with its probability (xorshift draws),
   then count the nodes still reachable from node 0. *)
let monte_carlo () =
  let first, adj, edge, p = Lazy.force graph in
  let dead = Bytes.make edges '\000' and seen = Bytes.make nodes '\000' in
  let queue = Array.make nodes 0 in
  let s = ref 0x1E3779B97F4A7C15 and reached = ref 0 in
  for _ = 1 to 10 do
    for e = 0 to edges - 1 do
      let x = !s in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      s := x;
      let u = float_of_int (x land 0xFFFFFFFFFFFF) /. 281474976710656.0 in
      Bytes.unsafe_set dead e (if u < p.(e) then '\001' else '\000')
    done;
    Bytes.fill seen 0 nodes '\000';
    queue.(0) <- 0;
    Bytes.set seen 0 '\001';
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      for k = first.(v) to first.(v + 1) - 1 do
        let w = adj.(k) in
        if Bytes.get dead edge.(k) = '\000' && Bytes.get seen w = '\000' then begin
          Bytes.set seen w '\001';
          queue.(!tail) <- w;
          incr tail
        end
      done
    done;
    reached := !reached + !tail
  done;
  !reached

let kernels () = Sys.opaque_identity (text () + monte_carlo ())

(* CPU time of one run of [kernels], about its typical value on the
   2-CPU virtual machine the bounds come from (OCaml 5.1), so scaled
   times read close to that machine's wall clock. *)
let reference_ns = 4.4e6

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* The mean of [readings] probes of about 5 ms each.  One reading
   varies by about 10% from the next; timings of a few long operations
   take several. *)
let slowdown ?(readings = 1) () =
  ignore (Lazy.force graph);
  let c0 = cpu_s () in
  for _ = 1 to readings do
    let d = Domain.spawn kernels in
    ignore (kernels ());
    ignore (Domain.join d)
  done;
  (cpu_s () -. c0) *. 1e9 /. (2.0 *. float_of_int readings *. reference_ns)
