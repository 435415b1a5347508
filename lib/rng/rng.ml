type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let draws = Obs.Metrics.counter "rng.draws"

(* Uncounted draws for hot kernels.  [next_int64] below pays a sharded
   atomic increment on *every* draw, which serialized exactly the loop
   the parallel trial engine exists to parallelize.  The [Raw] stream is
   bit-identical to the counted one — same state advance, same mix — so
   a kernel can draw raw and settle the books once per batch with
   [note_draws], keeping counter totals exact. *)
module Raw = struct
  let next_int64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  (* Batched bernoulli sweep over the listed positions only.  Draw [i]'s
     state is [base + (i+1)·gamma] — a pure function of the base state
     and the index — so a position left out moves no other position's
     draw, and the loop never stores to [t.state] until the end.  Every
     intermediate is a local the compiler keeps unboxed (the generic
     per-draw path allocates ~10 words of Int64 boxes), and the outcome
     is ORed into its byte as a 0/1 integer instead of branched on: at
     death rates of 8–37% that branch is mispredicted on a large share
     of draws. *)
  let fill_bernoulli t probs ~idx bits =
    let n = Array.length probs in
    if Bytes.length bits < (n + 7) lsr 3 then
      invalid_arg "Rng.Raw.fill_bernoulli: bits shorter than probs";
    let s0 = t.state in
    for k = 0 to Array.length idx - 1 do
      let i = Array.unsafe_get idx k in
      (* Bounds-checked: keeps [i] in [0, n), so the byte below exists. *)
      let p = probs.(i) in
      (* [mix], hand-inlined: a non-inlined call boxes its Int64 argument
         and result, which is exactly the allocation this loop exists to
         avoid. *)
      let z = Int64.add s0 (Int64.mul (Int64.of_int (i + 1)) golden_gamma) in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
      let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
      let z = Int64.logxor z (Int64.shift_right_logical z 31) in
      (* The 53 bits fit a native int, and [float_of_int] is one
         instruction where [Int64.to_float] is a C call; both are exact
         below 2^53, so [u] is the float [next_float53] returns. *)
      let u =
        float_of_int (Int64.to_int (Int64.shift_right_logical z 11))
        *. (1.0 /. 9007199254740992.0)
      in
      let b = i lsr 3 in
      Bytes.unsafe_set bits b
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get bits b) lor (Bool.to_int (u < p) lsl (i land 7))))
    done;
    t.state <- Int64.add s0 (Int64.mul (Int64.of_int n) golden_gamma)
end

let note_draws n = Obs.Metrics.add draws n

let next_int64 t =
  Obs.Metrics.incr draws;
  Raw.next_int64 t

let create seed = { state = mix (Int64.of_int seed) }

let split t = { state = next_int64 t }

(* [split_ith master i] is the generator the (i+1)-th [split master]
   call would return, computed without mutating [master]: [split]
   advances the parent by one gamma step per call and mixes, so the i-th
   child's state is [mix (state + (i+1)·gamma)] — a pure function of the
   master state and the index.  The parallel trial engine uses this to
   hand trial [i] its stream with no pre-split pass, no per-trial heap
   record, and no draw-counter traffic (the driver settles the count
   with [note_draws]). *)
let split_ith t i =
  if i < 0 then invalid_arg "Rng.split_ith: i < 0";
  { state = mix (Int64.add t.state (Int64.mul (Int64.of_int (i + 1)) golden_gamma)) }

let copy t = { state = t.state }

let next_float53 t =
  (* 53 random bits into [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection-free for our purposes: bounds here are far below 2^53. *)
  int_of_float (next_float53 t *. float_of_int bound)

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound = next_float53 t *. bound

let uniform t lo hi = lo +. (next_float53 t *. (hi -. lo))

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t ~p =
  let p = Float.max 0.0 (Float.min 1.0 p) in
  next_float53 t < p

let normal t ~mu ~sigma =
  let rec draw () =
    let u1 = next_float53 t in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = next_float53 t in
      mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  in
  draw ()

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate <= 0";
  let rec draw () =
    let u = next_float53 t in
    if u <= 1e-300 then draw () else -.log u /. rate
  in
  draw ()

let pareto t ~xmin ~alpha =
  if xmin <= 0.0 then invalid_arg "Rng.pareto: xmin <= 0";
  if alpha <= 0.0 then invalid_arg "Rng.pareto: alpha <= 0";
  let rec draw () =
    let u = next_float53 t in
    if u <= 1e-300 then draw () else xmin /. (u ** (1.0 /. alpha))
  in
  draw ()

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

(* The pick is the first index whose running prefix sum exceeds one
   uniform draw [x] in [[0, total)].  The sums are taken once, left to
   right, so each draw is a binary search over them: the weights are
   non-negative, so the prefixes never decrease and [x < prefix.(i)] is
   false up to the answer and true from it on (an infinite or NaN [x],
   from an infinite or NaN total, makes it false everywhere).  Float
   rounding can leave [x] at or past every prefix before the last
   positive weight; the pick is then that last positive-weight entry,
   never a trailing zero. *)
let weighted_sampler a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Rng.weighted_sampler: empty array";
  let prefix = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i (_, w) ->
      if w < 0.0 then invalid_arg "Rng.weighted_sampler: negative weight";
      acc := !acc +. w;
      prefix.(i) <- !acc)
    a;
  let total = !acc in
  if total <= 0.0 then invalid_arg "Rng.weighted_sampler: all-zero weights";
  let last_positive =
    let rec find i = if snd a.(i) > 0.0 then i else find (i - 1) in
    find (n - 1)
  in
  let values = Array.map fst a in
  fun t ->
    let x = float t total in
    let lo = ref 0 and hi = ref last_positive in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if x < Array.unsafe_get prefix mid then hi := mid else lo := mid + 1
    done;
    values.(!lo)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
