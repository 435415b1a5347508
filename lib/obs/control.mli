(** Global on/off switch for the whole observability layer.

    Every mutation in {!Metrics} and {!Span} is gated on [flag], so with
    observability disabled (the default) an instrumented call site costs a
    single branch and nothing is recorded: instrumented binaries behave —
    and print — exactly like uninstrumented ones.

    The switch is an [Atomic] so worker domains of the parallel trial
    engine ([Exec] / [Plan.run_trials_par]) read it without a data race;
    flip it before forking work, not during. *)

val flag : bool Atomic.t
(** The raw switch, exposed so hot paths can read it with one load. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool
