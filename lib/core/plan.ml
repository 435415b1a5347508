type t = {
  network : Infra.Network.t;
  spacing_km : float;
  per_repeater : float array;
  death : float array;
  per_repeater_fn : Infra.Cable.t -> float;
      (* kept for [sample_recompute_into], the legacy reference path *)
  uncertain : int array;
      (* cables with [death > 0], ascending: the only ones a trial draws *)
  (* Two CSR indices, computed eagerly at compile time (a lazily
     published mutable field would be a data race under the OCaml 5
     memory model once worker domains read it).  [node_off]/[node_cables]
     is the node->cable incidence; [own_off]/[owned] lists, per cable,
     the attached nodes it owns.  A node's owner is its incident cable
     least likely to die, so [unreachable_attached_pct] starts from the
     dead cables and checks only the nodes they own. *)
  node_off : int array; (* length nb_nodes + 1 *)
  node_cables : int array; (* incident cable ids per node, its owner first *)
  own_off : int array; (* length nb_cables + 1 *)
  owned : int array; (* every attached node once, grouped per owner *)
}

let compiles = Obs.Metrics.counter "plan.compiles"
let trials_total = Obs.Metrics.counter "plan.trials"

(* In place: [a.(k)] becomes [a.(0) + ... + a.(k)]. *)
let prefix_sum a =
  for k = 1 to Array.length a - 1 do
    a.(k) <- a.(k) + a.(k - 1)
  done

let compile ?(spacing_km = 150.0) ~network ~model () =
  if spacing_km <= 0.0 then invalid_arg "Plan.compile: spacing_km <= 0";
  Obs.Metrics.incr compiles;
  Obs.Span.with_ ~name:"plan.compile" @@ fun () ->
  let per_repeater_fn = Failure_model.compile model ~network in
  let m = Infra.Network.nb_cables network in
  let per_repeater = Array.make m 0.0 in
  let death = Array.make m 0.0 in
  let nuncertain = ref 0 in
  for c = 0 to m - 1 do
    let cable = Infra.Network.cable network c in
    let p = per_repeater_fn cable in
    per_repeater.(c) <- p;
    let d = Failure_model.cable_death_prob ~per_repeater:p ~spacing_km cable in
    death.(c) <- d;
    if d > 0.0 then incr nuncertain
  done;
  let uncertain = Array.make !nuncertain 0 in
  let j = ref 0 in
  for c = 0 to m - 1 do
    if death.(c) > 0.0 then begin
      uncertain.(!j) <- c;
      incr j
    end
  done;
  (* Both CSR indices are built without scratch arrays: count per group
     into the offsets, prefix-sum so [off.(k)] is the end of group [k],
     then fill backwards, which leaves [off.(k)] at the group's start
     and each group in increasing order. *)
  let n = Infra.Network.nb_nodes network in
  let landings c = (Infra.Network.cable network c).Infra.Cable.landings in
  let node_off = Array.make (n + 1) 0 in
  for c = 0 to m - 1 do
    List.iter (fun v -> node_off.(v) <- node_off.(v) + 1) (landings c)
  done;
  prefix_sum node_off;
  let node_cables = Array.make node_off.(n) 0 in
  for c = m - 1 downto 0 do
    List.iter
      (fun v ->
        node_off.(v) <- node_off.(v) - 1;
        node_cables.(node_off.(v)) <- c)
      (landings c)
  done;
  (* The owner of an attached node is its incident cable least likely to
     die, the first in cable order on ties.  It is swapped to the front
     of the node's group, where the owner index reads it. *)
  for v = 0 to n - 1 do
    let s = node_off.(v) and e = node_off.(v + 1) in
    if e > s then begin
      let best = ref s in
      for i = s + 1 to e - 1 do
        if death.(node_cables.(i)) < death.(node_cables.(!best)) then best := i
      done;
      let o = node_cables.(!best) in
      node_cables.(!best) <- node_cables.(s);
      node_cables.(s) <- o
    end
  done;
  let own_off = Array.make (m + 1) 0 in
  for v = 0 to n - 1 do
    if node_off.(v + 1) > node_off.(v) then begin
      let o = node_cables.(node_off.(v)) in
      own_off.(o) <- own_off.(o) + 1
    end
  done;
  prefix_sum own_off;
  let owned = Array.make own_off.(m) 0 in
  for v = n - 1 downto 0 do
    if node_off.(v + 1) > node_off.(v) then begin
      let o = node_cables.(node_off.(v)) in
      own_off.(o) <- own_off.(o) - 1;
      owned.(own_off.(o)) <- v
    end
  done;
  {
    network;
    spacing_km;
    per_repeater;
    death;
    per_repeater_fn;
    uncertain;
    node_off;
    node_cables;
    own_off;
    owned;
  }

let network t = t.network
let spacing_km t = t.spacing_km
let nb_cables t = Array.length t.death
let death_prob t c = t.death.(c)
let per_repeater_prob t c = t.per_repeater.(c)

let check_buffer name t dead =
  if Deadset.length dead <> Array.length t.death then
    invalid_arg (name ^ ": buffer size mismatch")

(* The uncounted kernel: no metrics traffic at all; it returns the
   number of raw RNG draws made so callers can settle [rng.draws] in one
   batched [Rng.note_draws] per trial (or per chunk, in the driver). *)

let sample_raw t rng dead =
  Deadset.clear dead;
  (* Only the uncertain cables are drawn, each at its own stream
     position, so skipping a death-0 cable moves no other cable's draw;
     the generator still advances [nb_cables] positions. *)
  Rng.Raw.fill_bernoulli rng t.death ~idx:t.uncertain (Deadset.unsafe_bits dead);
  Array.length t.uncertain

let sample_into t rng dead =
  check_buffer "Plan.sample_into" t dead;
  Obs.Metrics.incr trials_total;
  Rng.note_draws (sample_raw t rng dead)

let sample t rng =
  let dead = Deadset.create (Array.length t.death) in
  sample_into t rng dead;
  dead

let sample_recompute_into t rng dead =
  check_buffer "Plan.sample_recompute_into" t dead;
  let m = Infra.Network.nb_cables t.network in
  for c = 0 to m - 1 do
    let cable = Infra.Network.cable t.network c in
    let p =
      Failure_model.cable_death_prob ~per_repeater:(t.per_repeater_fn cable)
        ~spacing_km:t.spacing_km cable
    in
    Deadset.set dead c (Rng.bernoulli rng ~p)
  done

(* [lowest_bit.(x)]: index of the lowest set bit of the byte [x > 0]. *)
let lowest_bit =
  Array.init 256 (fun x ->
      let rec go k = if k >= 8 || x land (1 lsl k) <> 0 then k else go (k + 1) in
      go 0)

let unreachable_attached_pct t dead =
  check_buffer "Plan.unreachable_attached_pct" t dead;
  let attached = Array.length t.owned in
  if attached = 0 then 0.0
  else begin
    let bits = Deadset.unsafe_bits dead in
    let own_off = t.own_off and owned = t.owned in
    let off = t.node_off and cables = t.node_cables in
    let unreachable = ref 0 in
    (* A node is unreachable only if all its cables died, its owner
       included, and it has exactly one owner: visiting the nodes owned
       by dead cables counts each unreachable node once.  Plain loops
       over the dead bits, not a closure, so nothing is allocated. *)
    for byte = 0 to Bytes.length bits - 1 do
      let x = ref (Char.code (Bytes.unsafe_get bits byte)) in
      while !x <> 0 do
        let c = (byte lsl 3) lor Array.unsafe_get lowest_bit !x in
        x := !x land (!x - 1);
        for j = own_off.(c) to own_off.(c + 1) - 1 do
          let v = Array.unsafe_get owned j in
          let e = Array.unsafe_get off (v + 1) in
          (* [v]'s owner, first in its group, is [c]: dead.  Check the
             rest, with early exit on the first live cable. *)
          let i = ref (Array.unsafe_get off v + 1) in
          while !i < e && Deadset.unsafe_get dead (Array.unsafe_get cables !i) do
            incr i
          done;
          if !i = e then incr unreachable
        done
      done
    done;
    100.0 *. float_of_int !unreachable /. float_of_int attached
  end

let expected_cables_failed_pct t =
  let m = Array.length t.death in
  if m = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for c = 0 to m - 1 do
      sum := !sum +. t.death.(c)
    done;
    100.0 *. !sum /. float_of_int m
  end

let par_runs = Obs.Metrics.counter "plan.par_runs"

let run_trials_par ?jobs t ~trials ~seed ~init ~map ~merge =
  if trials <= 0 then invalid_arg "Plan.run_trials_par: trials <= 0";
  let jobs =
    match jobs with
    | None -> Exec.default_jobs ()
    | Some j -> if j <= 0 then invalid_arg "Plan.run_trials_par: jobs <= 0" else j
  in
  Obs.Metrics.incr par_runs;
  Obs.Span.with_ ~name:"plan.run_trials" @@ fun () ->
  (* Determinism, part 1 — indexed splits: trial [i] draws from
     [Rng.split_ith master i], the stream the i-th of successive
     [Rng.split master] calls yields (the historical per-trial pattern),
     computed without mutating the master.  No pre-split pass, no array
     of [trials] generators: a worker derives any trial's stream from
     two integers. *)
  let master = Rng.create seed in
  let m = Array.length t.death in
  (* [Exec.parallel_for] runs inline, as a single [body ~lo:0 ~hi:trials]
     call that ignores [~chunk], at [jobs = 1] and also inside another
     section's body at any [jobs].  Pinning [chunk = trials] at [jobs = 1]
     keeps [chunk_results] at one slot.  An inline call at [jobs > 1]
     fills slot 0 with every trial and leaves the rest empty, and the
     ordered merge below reads the same sequence either way. *)
  let chunk = if jobs = 1 then trials else Int.max 1 (trials / (8 * jobs)) in
  let nchunks = (trials + chunk - 1) / chunk in
  (* Per-chunk result accumulators, one owned array per claimed chunk:
     no per-trial [Some] boxing, and workers never store into adjacent
     slots of a shared results array (false sharing) — a chunk's array
     is touched by exactly one domain until the ordered merge below. *)
  let chunk_results = Array.make nchunks [||] in
  let progress = Obs.Progress.start ~label:"trials" ~total:trials in
  Exec.parallel_for ~chunk ~jobs ~n:trials (fun ~lo ~hi ->
      (* One dead buffer per claimed chunk, reused across its trials and
         owned by the worker.  Counter updates are batched per chunk:
         one draw per split plus one per uncertain cable, the count the
         counted [Rng.split] and {!sample_into} would make. *)
      let dead = Deadset.create m in
      let draws = ref 0 in
      let run_one i =
        let rng = Rng.split_ith master i in
        draws := !draws + 1 + sample_raw t rng dead;
        map ~rng ~dead
      in
      let count = hi - lo in
      let out = Array.make count (run_one lo) in
      for k = 1 to count - 1 do
        out.(k) <- run_one (lo + k)
      done;
      chunk_results.(lo / chunk) <- out;
      Rng.note_draws !draws;
      Obs.Metrics.add trials_total count;
      Obs.Progress.tick ~n:count progress);
  (* Determinism, part 2 — ordered merge: fold in trial order regardless
     of which domain produced which chunk, so [~jobs:1] and [~jobs:n]
     accumulate (floats included) in the same sequence. *)
  let acc = ref init in
  for ci = 0 to nchunks - 1 do
    let out = chunk_results.(ci) in
    for k = 0 to Array.length out - 1 do
      acc := merge !acc out.(k)
    done
  done;
  Obs.Progress.finish progress;
  !acc
