(* Order statistics over float samples: per-run percentiles and the
   across-run quartiles that compare mode and the bound derivation use. *)

(* A growable sample buffer, so the client records one latency per
   response without a list cell each. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let sorted_of_samples ss =
  let a = Array.concat (List.map (fun s -> Array.sub s.data 0 s.len) ss) in
  Array.sort Float.compare a;
  a

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks over sorted samples; an
   empty sample reads as nan so the caller can refuse to report it. *)
let quantile sorted q =
  if Array.length sorted = 0 then Float.nan else Server.Loadgen.quantile_exact sorted q

let median xs = quantile (sorted xs) 0.5

(* First and third quartile as Python's [statistics.quantiles(xs, n=4)]
   computes them (its default "exclusive" method), so the spreads this
   benchmark reports are the ones an outside checker recomputes. *)
let quartiles xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (d.(0), d.(0))
  else
    let at i = d.(Int.max 0 (Int.min (n - 1) i)) in
    let q i =
      let m = (n + 1) * i in
      let j = m / 4 and delta = m mod 4 in
      ((at (j - 1) *. float_of_int (4 - delta)) +. (at j *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
