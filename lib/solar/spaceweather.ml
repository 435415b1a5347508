(** Space-weather substrate: solar cycles, CME kinematics, historical storm
    catalog, occurrence-probability models and early-warning timelines.

    §2 of the paper ("Motivation: a real threat") is implemented entirely
    by this library; the GIC library translates its storm scenarios into
    ground effects.  §2.1's solar-flare taxonomy is not modelled: the
    paper raises flares only to set them aside, since their radio
    blackouts do not reach cables. *)

module Dst = Dst
module Cme = Cme
module Sunspot = Sunspot
module Gleissberg = Gleissberg
module Probability = Probability
module Forecast = Forecast
module Storm_catalog = Storm_catalog
module Event_generator = Event_generator
