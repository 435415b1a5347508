(** A small string-keyed LRU map: the service's result cache.

    O(1) find/add via a hash table over an intrusive doubly-linked
    recency list, behind one mutex: every operation is safe from any
    number of domains, and eviction is exact global LRU.  The critical
    section is one hash probe plus a relink. *)

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
