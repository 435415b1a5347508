(** The paper's primary contribution: quantifying solar-superstorm impact
    on Internet infrastructure.

    - {!Failure_model}, {!Plan}, {!Montecarlo}: §4.3's repeater-failure
      machinery — models compile into plans, plans drive every trial;
    - {!Distribution}: Figs 3–5 (infrastructure vs population, lengths);
    - {!Resilience}: Figs 6–8 (uniform and latitude-tiered sweeps);
    - {!Country}: §4.3.4 country-scale case studies;
    - {!Systems}: §4.4 (ASes, data centers, DNS);
    - {!Scenario}: end-to-end CME → impact pipelines;
    - {!Sweep}: parameter grids expanded, plan-deduplicated and
      streamed as JSONL rows;
    - {!Mitigation}: §5's shutdown/augmentation/partition planning;
    - {!Stats}: shared descriptive statistics. *)

module Stats = Stats
module Deadset = Deadset
module Failure_model = Failure_model
module Plan = Plan
module Montecarlo = Montecarlo
module Distribution = Distribution
module Resilience = Resilience
module Country = Country
module Systems = Systems
module Scenario = Scenario
module Sweep = Sweep
module Mitigation = Mitigation
module Powergrid = Powergrid
module Traffic = Traffic
module Recovery = Recovery
module Resilience_test = Resilience_test
module Sensitivity = Sensitivity
module Capacity = Capacity
module Segment_model = Segment_model
