(** Memoized dataset builds.

    The generators are deterministic in their parameters, so building the
    same dataset twice is pure waste — yet the CLI subcommands and the
    examples historically called [Submarine.build] independently up to six
    times per process.  Each function here returns the same physical value
    for the same parameters, building at most once per [(params)] key.

    The cache is per-process and unbounded; keys are the full parameter
    tuples, so differently-parameterized builds never collide.  Safe to
    call from concurrent domains, with a single flight per key: the
    first caller for a key builds it outside the lock, and concurrent
    callers for the same key wait for that build and share its physical
    value.  Callers for other keys proceed, so distinct datasets build
    in parallel.  A build that raises caches nothing: its waiters wake,
    and the next call builds again (and raises again). *)

val submarine : ?seed:int -> unit -> Infra.Network.t
val intertubes : ?seed:int -> unit -> Infra.Network.t
val itu : ?seed:int -> ?scale:float -> unit -> Infra.Network.t
val caida : ?seed:int -> ?ases:int -> unit -> Caida.asys array
val dns_roots : ?seed:int -> unit -> Dns_roots.instance array
val ixp : ?seed:int -> unit -> Ixp.t array

val build_count : unit -> int
(** Number of underlying builds performed so far (cache misses) — a test
    hook for asserting the memoization actually memoizes. *)

val clear : unit -> unit
(** Drop every cached dataset (and zero {!build_count}).  Tests only. *)
