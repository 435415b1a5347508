(** A small multi-producer multi-consumer FIFO channel for moving work
    between the service's acceptor and its worker domains: the acceptor
    → worker job queue and the worker → acceptor completion queue.
    Neither needs a bound — every job is a connection the acceptor has
    already counted against its pending cap — so {!push} never blocks.

    FIFO order is total across producers; {!pop} blocks until an
    element is available (workers park here between requests and are
    woken by the [Stop] sentinel at shutdown). *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Enqueue; never blocks (beyond the internal lock). *)

val pop : 'a t -> 'a
(** Block until an element is available and dequeue it. *)

val try_pop : 'a t -> 'a option
(** Dequeue if an element is available, never blocking. *)

val length : 'a t -> int
