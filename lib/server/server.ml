(** The dependency-free simulation service behind [solarstorm serve]:
    a hardened HTTP/1.1 codec for both ends of the wire ({!Http}),
    method × path routing ({!Router}), the endpoint handlers
    ({!Handlers}), a locked canonical-key LRU result cache plus
    the shared compute/encode path ({!Api}, {!Lru}), the socket loop in
    which each of [--workers] domains owns the connections it accepts,
    with backpressure and graceful drain ({!Service}), the pipelined loopback
    load generator ({!Loadgen}), and the windowed self-monitoring
    surface: each server's ring, rules and windowed query ({!Monitor}),
    the /dashboard renderer ({!Dashboard}) and the live terminal view
    ({!Top}).

    Design notes in DESIGN.md §8; quickstart in README "Serving". *)

module Http = Http
module Lru = Lru
module Api = Api
module Router = Router
module Handlers = Handlers
module Service = Service
module Loadgen = Loadgen
module Monitor = Monitor
module Dashboard = Dashboard
module Top = Top
