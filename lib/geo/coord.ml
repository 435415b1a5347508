type t = { lat : float; lon : float }

exception Invalid_coordinate of string

let valid_float f = Float.is_finite f

let make ~lat ~lon =
  if not (valid_float lat && valid_float lon) then
    raise (Invalid_coordinate (Printf.sprintf "non-finite coordinate (%f, %f)" lat lon));
  if lat < -90.0 || lat > 90.0 then
    raise (Invalid_coordinate (Printf.sprintf "latitude %f out of [-90, 90]" lat));
  { lat; lon = Angle.normalize_lon lon }

let make_opt ~lat ~lon =
  match make ~lat ~lon with c -> Some c | exception Invalid_coordinate _ -> None

let lat c = c.lat
let lon c = c.lon

let equal ?(eps = 1e-9) a b =
  Float.abs (a.lat -. b.lat) <= eps && Angle.angular_diff a.lon b.lon <= eps

let compare a b =
  match Float.compare a.lat b.lat with 0 -> Float.compare a.lon b.lon | c -> c

let abs_lat c = Float.abs c.lat

let pp ppf c =
  let ns = if c.lat >= 0.0 then 'N' else 'S' in
  let ew = if c.lon >= 0.0 then 'E' else 'W' in
  Format.fprintf ppf "%.2f%c %.2f%c" (Float.abs c.lat) ns (Float.abs c.lon) ew

let to_string c = Format.asprintf "%a" pp c

let of_string s =
  let s = String.trim s in
  let parse_signed_pair s =
    match String.split_on_char ',' s with
    | [ a; b ] -> (
        match (float_of_string_opt (String.trim a), float_of_string_opt (String.trim b)) with
        | Some lat, Some lon -> make_opt ~lat ~lon
        | _ -> None)
    | _ -> None
  in
  let parse_hemisphere s =
    (* Format produced by [pp]: "40.71N 74.01W". *)
    match String.split_on_char ' ' s with
    | [ a; b ] when String.length a >= 2 && String.length b >= 2 ->
        let split_tag x =
          let n = String.length x in
          (String.sub x 0 (n - 1), x.[n - 1])
        in
        let va, ta = split_tag a and vb, tb = split_tag b in
        let sign_of tag v =
          match tag with
          | 'N' | 'E' -> Some v
          | 'S' | 'W' -> Some (-.v)
          | _ -> None
        in
        (match (float_of_string_opt va, float_of_string_opt vb) with
        | Some fa, Some fb -> (
            match (sign_of ta fa, sign_of tb fb) with
            | Some lat, Some lon -> make_opt ~lat ~lon
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  match parse_hemisphere s with Some c -> Some c | None -> parse_signed_pair s
