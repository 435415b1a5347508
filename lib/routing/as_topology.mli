(** AS-level Internet topology with business relationships.

    §5.3 of the paper asks for "backup interdomain protocols that allow
    multiple paths and more resilient Internet architectures (e.g.,
    SCION)".  Evaluating that needs an AS graph with Gao–Rexford
    customer/provider/peer semantics.  The generator builds one over the
    synthetic AS geography of {!Datasets.Caida}: a small clique-ish tier-1
    core, regional tier-2 transit providers, and stub ASes that buy
    transit from geographically plausible providers. *)

type tier = T1 | T2 | Stub

type t = {
  n : int;  (** AS count; ASes are 0 .. n-1 *)
  tier : tier array;
  home_lat : float array;  (** AS home latitude (for failure models) *)
  providers : int list array;  (** AS -> its transit providers *)
  customers : int list array;  (** inverse of [providers] *)
  peers : int list array;  (** settlement-free peers (symmetric) *)
}

val generate : ?seed:int -> ?n:int -> unit -> t
(** Build a topology over [n] ASes (default 2000).  Structure: ~1% tier-1
    (full mesh of peers), ~14% tier-2 (peer with nearby tier-2s, buy from
    2-3 tier-1s), stubs buy from 1-3 nearby transit ASes.  Multi-homing
    follows real proportions (most stubs are multi-homed).
    @raise Invalid_argument if [n < 20]. *)

val provider_cone : t -> int -> bool array
(** [provider_cone t dst] marks every AS that can reach [dst] by
    descending customer links only (i.e. [dst] is in its customer cone,
    including [dst] itself).  O(V+E). *)

val degree_stats : t -> float * int
(** (mean provider+peer+customer degree, max degree). *)

val validate : t -> (unit, string) result
(** Structural sanity: relationships are consistent (x in providers(y) iff
    y in customers(x)), peers symmetric, no self-links, every stub has a
    provider. *)
