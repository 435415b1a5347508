(* Bytes-backed bitvector: 1 bit per cable instead of [bool array]'s
   byte (plus header) — an 8× smaller per-trial footprint, a memset
   [clear], and a table-driven popcount for the failed-cable count the
   drivers take after every trial.  The trial kernel clears and then
   ORs the 0/1 bits of the uncertain cables into [bits] directly, one
   byte at a time ([unsafe_bits]). *)

type t = { bits : Bytes.t; length : int }

let create length =
  if length < 0 then invalid_arg "Deadset.create: length < 0";
  { bits = Bytes.make ((length + 7) lsr 3) '\000'; length }

let length t = t.length

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let unsafe_get t i =
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) lsr (i land 7) land 1 = 1

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Deadset.get: index out of bounds";
  unsafe_get t i

let unsafe_set_dead t i =
  let b = i lsr 3 in
  Bytes.unsafe_set t.bits b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits b) lor (1 lsl (i land 7))))

let set t i v =
  if i < 0 || i >= t.length then invalid_arg "Deadset.set: index out of bounds";
  let b = i lsr 3 in
  let mask = 1 lsl (i land 7) in
  let byte = Char.code (Bytes.unsafe_get t.bits b) in
  Bytes.unsafe_set t.bits b
    (Char.unsafe_chr (if v then byte lor mask else byte land lnot mask))

let unsafe_bits t = t.bits

let popcount8 =
  Array.init 256 (fun i ->
      let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
      go i 0)

let count_dead t =
  (* Bits past [length] are never set ([set] bounds-checks, the kernel
     writes only cable indices), so whole-byte popcounts are exact. *)
  let acc = ref 0 in
  for b = 0 to Bytes.length t.bits - 1 do
    acc := !acc + Array.unsafe_get popcount8 (Char.code (Bytes.unsafe_get t.bits b))
  done;
  !acc

let to_bool_array t = Array.init t.length (unsafe_get t)

let of_bool_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i v -> if v then unsafe_set_dead t i) a;
  t
