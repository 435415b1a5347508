type pdf_series = { label : string; points : (float * float) list }
type threshold_series = { label : string; points : (float * float) list }
type cdf_series = { label : string; points : (float * float) list }

let pdf_of_items ~label items : pdf_series =
  let h = Geo.Latband.histogram ~bin_deg:2.0 items in
  { label; points = Geo.Latband.pdf h }

let fig3 ~submarine =
  [
    pdf_of_items ~label:"Population" (Datasets.Population.latitude_weights ~bin_deg:2.0);
    pdf_of_items ~label:"Submarine endpoints" (Infra.Network.endpoint_latitudes submarine);
  ]

let threshold_of_items ~label items =
  ({ label; points = Geo.Latband.threshold_curve items } : threshold_series)

let one_hop_series submarine =
  (* For each threshold: endpoints above it, plus endpoints below it with a
     direct cable to a node above it (Fig. 4a's "one-hop endpoints"). *)
  let lats = Infra.Network.endpoint_latitudes submarine in
  let total = float_of_int (List.length lats) in
  let points =
    List.map
      (fun th ->
        let above =
          List.length (List.filter (fun (l, _) -> Float.abs l > th) lats)
        in
        let one_hop = List.length (Infra.Network.one_hop_endpoints submarine ~threshold:th) in
        (th, 100.0 *. float_of_int (above + one_hop) /. total))
      [ 0.; 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90. ]
  in
  ({ label = "One-hop endpoints"; points } : threshold_series)

let fig4a ~submarine ~intertubes =
  [
    threshold_of_items ~label:"Submarine endpoints"
      (Infra.Network.endpoint_latitudes submarine);
    one_hop_series submarine;
    threshold_of_items ~label:"Intertubes endpoints"
      (Infra.Network.endpoint_latitudes intertubes);
    threshold_of_items ~label:"Population"
      (Datasets.Population.latitude_weights ~bin_deg:2.0);
  ]

let fig4b ~routers ~ixps ~dns =
  [
    threshold_of_items ~label:"Internet routers"
      (Array.to_list (Array.map (fun l -> (l, 1.0)) routers));
    threshold_of_items ~label:"IXPs" (Datasets.Ixp.latitudes ixps);
    threshold_of_items ~label:"DNS root servers" (Datasets.Dns_roots.latitudes dns);
    threshold_of_items ~label:"Population"
      (Datasets.Population.latitude_weights ~bin_deg:2.0);
  ]

let cdf_of_network ~label net =
  ({ label; points = Stats.cdf_points (Infra.Network.cable_lengths net) } : cdf_series)

let fig5 ~submarine ~intertubes ~itu =
  [
    cdf_of_network ~label:"ITU (global, land)" itu;
    cdf_of_network ~label:"Intertubes (US, land)" intertubes;
    cdf_of_network ~label:"Submarine (global)" submarine;
  ]

let mass_above (s : pdf_series) ~threshold =
  (* Trapezoid-style mass estimate with per-point bin widths derived from
     the sample grid itself: interior points span half the gap to each
     neighbour, edge points the single adjacent gap.  On a uniform grid
     this reduces to (density x bin width) per point. *)
  let points = Array.of_list s.points in
  let n = Array.length points in
  let width i =
    let x j = fst points.(j) in
    if n <= 1 then 0.0
    else if i = 0 then x 1 -. x 0
    else if i = n - 1 then x (n - 1) -. x (n - 2)
    else (x (i + 1) -. x (i - 1)) /. 2.0
  in
  let acc = ref 0.0 in
  Array.iteri
    (fun i (lat, d) -> if Float.abs lat > threshold then acc := !acc +. (d *. width i))
    points;
  !acc
