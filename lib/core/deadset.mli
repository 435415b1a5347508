(** Dead-cable sets as [Bytes]-backed bitvectors.

    The per-trial outcome of the storm kernel — which cables died — used
    to be a [bool array]: one byte per cable, a full clearing loop per
    trial, and a counting fold per consumer.  A bitvector is 8× denser
    (the whole submarine network's flags fit in a few cache lines),
    clears with one [Bytes.fill], and counts deaths with a table-driven
    popcount.  The trial kernel ({!Plan.sample_into}) builds each byte's
    0/1 bits for the cables that can die in a register, with no branch
    on the outcome, ORs it into the set once, and never touches the bits
    of cables whose death probability is 0; the reachability count
    ({!Plan.unreachable_attached_pct}) skips whole zero bytes and visits
    only the dead bits.

    Indices are cable ids, [0 .. length - 1].  A [Deadset.t] is a
    mutable scratch buffer with the same ownership contract the [bool
    array] had: trial drivers reuse one per worker and callbacks must
    copy ({!to_bool_array}) anything they keep. *)

type t

val create : int -> t
(** All-alive set for [length] cables.
    @raise Invalid_argument if negative. *)

val length : t -> int

val clear : t -> unit
(** Mark every cable alive (one memset). *)

val get : t -> int -> bool
(** [get t c] — is cable [c] dead?  @raise Invalid_argument out of
    bounds. *)

val set : t -> int -> bool -> unit
(** Set cable [c]'s flag explicitly.  @raise Invalid_argument out of
    bounds. *)

val unsafe_get : t -> int -> bool
(** {!get} without the bounds check — for kernel loops whose index range
    is already validated. *)

val unsafe_bits : t -> Bytes.t
(** The backing store itself, not a copy: cable [c] is bit [c land 7]
    (least significant first) of byte [c lsr 3], and there are
    [(length + 7) / 8] bytes.  For the bulk kernels that write it
    ({!Rng.Raw.fill_below}) and scan it byte by byte.  A writer must
    leave the bits past [length] clear: {!count_dead} counts whole
    bytes. *)

val count_dead : t -> int
(** Number of dead cables (popcount). *)

val to_bool_array : t -> bool array
(** Snapshot as the legacy representation (allocates). *)

val of_bool_array : bool array -> t
