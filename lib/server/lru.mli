(** A small string-keyed LRU map for the service's result cache.

    O(1) find/add via a hash table over an intrusive doubly-linked
    recency list.  The plain [t] is {e not} thread-safe — use it from
    one domain, or reach for {!Sharded}, the lock-striped wrapper the
    multi-worker service stores response bodies in. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] 0 disables caching (every [add] is dropped).
    @raise Invalid_argument if negative. *)

val capacity : 'a t -> int

val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup; a hit becomes the most recently used entry. *)

val add : 'a t -> string -> 'a -> (string * 'a) option
(** Insert (or refresh) a binding as most recently used, evicting the
    least recently used entry when over capacity; the evicted binding is
    returned so callers can count it. *)

val clear : 'a t -> unit

val keys_newest_first : 'a t -> string list
(** Recency order, for tests. *)

(** Lock-striped sharded LRU, safe for concurrent use from any number
    of domains.

    Keys are distributed over [shards] independent (mutex, {!t}) pairs
    by [Hashtbl.hash], so domains touching different stripes never
    contend and the critical section is one O(1) stripe operation.
    Per-shard capacities sum {e exactly} to the requested total (the
    first [capacity mod shards] stripes hold one extra entry), so the
    global entry bound is as hard as the unsharded cache's.  Recency —
    and therefore eviction — is per stripe: an insert only ever evicts
    within its own stripe, which approximates global LRU when keys
    spread evenly. *)
module Sharded : sig
  type 'a t

  val create : ?shards:int -> capacity:int -> unit -> 'a t
  (** [shards] defaults to 8.  The shard count is clamped to [max 1 capacity] so no stripe is
      capacity-0 while others hold entries ([capacity 0] disables
      caching, as in {!Lru.create}).
      @raise Invalid_argument if [capacity < 0] or [shards <= 0]. *)

  val capacity : 'a t -> int
  (** The requested total capacity. *)

  val shard_count : 'a t -> int
  (** The clamped number of stripes actually in use. *)

  val find : 'a t -> string -> 'a option
  val add : 'a t -> string -> 'a -> (string * 'a) option
  val length : 'a t -> int
  val clear : 'a t -> unit

  val keys_newest_first : 'a t -> string list
  (** Per-stripe recency order, concatenated in stripe order — there is
      no global recency ordering across stripes.  For tests. *)
end
