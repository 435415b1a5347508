(** Large-scale resilience testing for geo-distributed services (§5.4).

    The paper: current fault-tolerance practice assumes a handful of
    correlated failures; superstorm-scale partitions are absent from the
    literature.  This module is the "standardized test" it calls for: a
    service is a set of replica cities plus read/write quorum rules, and
    the test injects the partitions predicted for a failure state, then
    measures population-weighted availability. *)

type service = {
  name : string;
  replicas : string list;  (** gazetteer city names *)
  write_quorum : int;  (** replicas that must share the user's partition *)
  read_quorum : int;
}

val sample_services : service list
(** Representative placements: a 3-replica US-East service, a 5-continent
    anycast service (quorum 1), a majority-quorum database over
    5 continents, and a Europe-only pair. *)

type availability = {
  service : service;
  read_pct : float;  (** population-weighted users that can read *)
  write_pct : float;
  reachable_replicas_mean : float;
}

val evaluate : network:Infra.Network.t -> service -> availability
(** Availability under the S1 partitions of
    {!Mitigation.predicted_partitions} at survival cutoff 0.5: a user (at
    a landing node, weighted 1) can read/write iff its partition contains
    at least the
    quorum of replica sites (each replica mapped to its nearest landing
    node).  @raise Invalid_argument if a quorum exceeds the replica count
    or is not positive. *)

val run_suite : network:Infra.Network.t -> unit -> availability list
(** Evaluate {!sample_services} under S1. *)

val placement_gain :
  network:Infra.Network.t -> before:service -> after:service -> float
(** Write-availability improvement (percentage points) from re-placing a
    service — the quantitative version of §5.2's "geo-distribute critical
    functionality so each partition can function independently". *)
