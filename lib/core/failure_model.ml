type t =
  | Uniform of float
  | Latitude_tiered of {
      high : float;
      mid : float;
      low : float;
      mid_threshold : float;
      high_threshold : float;
    }
  | Gic_physical of { dst_nt : float; scale_a : float }
  | Geomag_tiered of {
      high : float;
      mid : float;
      low : float;
      mid_threshold : float;
      high_threshold : float;
    }

let check_prob p =
  if p < 0.0 || p > 1.0 then invalid_arg "Failure_model: probability outside [0, 1]"

let uniform p =
  check_prob p;
  Uniform p

let tiered ~high ~mid ~low =
  check_prob high;
  check_prob mid;
  check_prob low;
  Latitude_tiered { high; mid; low; mid_threshold = 40.0; high_threshold = 60.0 }

let s1 = tiered ~high:1.0 ~mid:0.1 ~low:0.01
let s2 = tiered ~high:0.1 ~mid:0.01 ~low:0.001

let geomag_tiered ~high ~mid ~low =
  check_prob high;
  check_prob mid;
  check_prob low;
  Geomag_tiered { high; mid; low; mid_threshold = 40.0; high_threshold = 60.0 }

let s1_geomag = geomag_tiered ~high:1.0 ~mid:0.1 ~low:0.01
let s2_geomag = geomag_tiered ~high:0.1 ~mid:0.01 ~low:0.001

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "s1" -> Ok s1
  | "s2" -> Ok s2
  | "physical" -> Ok (Gic_physical { dst_nt = -1200.0; scale_a = 30.0 })
  | "s1-geomag" -> Ok s1_geomag
  | "s2-geomag" -> Ok s2_geomag
  | s -> (
      match float_of_string_opt s with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (uniform p)
      | _ ->
          Error
            "expected s1 | s2 | physical | s1-geomag | s2-geomag | probability \
             in [0,1]")

let to_string m =
  let g v = Obs.Json.format_float "%g" v in
  let tiers name high mid low =
    String.concat "" [ name; "["; g high; "; "; g mid; "; "; g low; "]" ]
  in
  match m with
  | Uniform p -> "uniform(" ^ g p ^ ")"
  | Latitude_tiered { high; mid; low; _ } -> tiers "tiered" high mid low
  | Gic_physical { dst_nt; scale_a } ->
      String.concat "" [ "gic-physical(Dst="; g dst_nt; ", scale="; g scale_a; "A)" ]
  | Geomag_tiered { high; mid; low; _ } -> tiers "geomag-tiered" high mid low

let compile model ~network =
  Obs.Span.with_ ~name:"fm.compile" @@ fun () ->
  match model with
  | Uniform p -> fun (_ : Infra.Cable.t) -> p
  | Latitude_tiered { high; mid; low; mid_threshold; high_threshold } ->
      fun c ->
        let tier =
          Geo.Latband.tier_of_abs_lat ~mid_threshold ~high_threshold
            c.Infra.Cable.max_abs_lat
        in
        (match tier with Geo.Latband.High -> high | Geo.Latband.Mid -> mid | Geo.Latband.Low -> low)
  | Gic_physical { dst_nt; scale_a } ->
      let storm = Gic.Disturbance.storm_of_dst dst_nt in
      let exposures = Infra.Exposure.network_exposures ~storm network in
      fun c ->
        Infra.Exposure.failure_probability ~scale_a exposures.(c.Infra.Cable.id)
  | Geomag_tiered { high; mid; low; mid_threshold; high_threshold } ->
      (* Memoize the per-cable geomagnetic extremum: it needs the node
         coordinates, which only the network knows. *)
      let max_geomag = Hashtbl.create 64 in
      let geomag_of c =
        match Hashtbl.find_opt max_geomag c.Infra.Cable.id with
        | Some v -> v
        | None ->
            let v =
              List.fold_left
                (fun acc l ->
                  Float.max acc
                    (Float.abs
                       (Geo.Geomagnetic.dipole_latitude (Infra.Network.node_coord network l))))
                0.0 c.Infra.Cable.landings
            in
            Hashtbl.replace max_geomag c.Infra.Cable.id v;
            v
      in
      fun c ->
        (match
           Geo.Latband.tier_of_abs_lat ~mid_threshold ~high_threshold (geomag_of c)
         with
        | Geo.Latband.High -> high
        | Geo.Latband.Mid -> mid
        | Geo.Latband.Low -> low)

let cable_death_prob ~per_repeater ~spacing_km c =
  let n = Infra.Cable.repeater_count c ~spacing_km in
  if n = 0 then 0.0 else 1.0 -. ((1.0 -. per_repeater) ** float_of_int n)
