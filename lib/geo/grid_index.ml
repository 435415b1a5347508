(* One cell's entries in insertion order, as parallel arrays over the
   first [n] slots: [pos.(i)], its [Distance.cos_lat] and [value.(i)]. *)
type 'a cell = {
  mutable n : int;
  mutable pos : Coord.t array;
  mutable cos : float array;
  mutable value : 'a array;
}

(* Cell [(lat_i, lon_i)] is [cells.(lat_i * nlon + lon_i)].  Every cell
   starts as [empty], one shared record that is never written: [add]
   gives a cell its own record first. *)
type 'a t = {
  cell_deg : float;
  nlat : int;
  nlon : int;
  cells : 'a cell array;
  empty : 'a cell;
  mutable count : int;
}

(* Row and column of a point.  Latitude 90 and longitude 180 (where
   [Coord.make] puts -180) land one past the last row and column; they
   fold into the last row and, across the antimeridian, the first
   column, so every point sits in a cell the scans reach. *)
let lat_index t lat =
  Int.min (t.nlat - 1) (int_of_float (Float.floor ((lat +. 90.0) /. t.cell_deg)))

let lon_index t lon =
  int_of_float (Float.floor ((lon +. 180.0) /. t.cell_deg)) mod t.nlon

let cell_index t c = (lat_index t (Coord.lat c) * t.nlon) + lon_index t (Coord.lon c)

let add t pos value =
  let k = cell_index t pos in
  if t.cells.(k) == t.empty then
    t.cells.(k) <- { n = 0; pos = [||]; cos = [||]; value = [||] };
  let cell = t.cells.(k) in
  if cell.n = Array.length cell.pos then begin
    let cap = Int.max 4 (2 * cell.n) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 cell.n;
      b
    in
    cell.pos <- grow cell.pos pos;
    cell.cos <- grow cell.cos 0.0;
    cell.value <- grow cell.value value
  end;
  cell.pos.(cell.n) <- pos;
  cell.cos.(cell.n) <- Distance.cos_lat pos;
  cell.value.(cell.n) <- value;
  cell.n <- cell.n + 1;
  t.count <- t.count + 1

(* The flat cell array costs one word per cell, used or not: 0.25°
   cells are about a million words. *)
let of_list ?(cell_deg = 5.0) entries =
  if not (cell_deg >= 0.25 && cell_deg <= 90.0) then
    invalid_arg "Grid_index.of_list: cell_deg out of [0.25, 90]";
  let nlat = int_of_float (Float.ceil (180.0 /. cell_deg)) in
  let nlon = int_of_float (Float.ceil (360.0 /. cell_deg)) in
  let empty = { n = 0; pos = [||]; cos = [||]; value = [||] } in
  let t = { cell_deg; nlat; nlon; cells = Array.make (nlat * nlon) empty; empty; count = 0 } in
  List.iter (fun (pos, v) -> add t pos v) entries;
  t

let size t = t.count

let remove t pos value =
  let cell = t.cells.(cell_index t pos) in
  let rec find i =
    if i >= cell.n then ()
    else
      let p = cell.pos.(i) in
      if Coord.lat p = Coord.lat pos && Coord.lon p = Coord.lon pos && cell.value.(i) = value
      then begin
        let tail = cell.n - i - 1 in
        Array.blit cell.pos (i + 1) cell.pos i tail;
        Array.blit cell.cos (i + 1) cell.cos i tail;
        Array.blit cell.value (i + 1) cell.value i tail;
        cell.n <- cell.n - 1;
        t.count <- t.count - 1
      end
      else find (i + 1)
  in
  find 0

(* Indices of the cells whose bounding box might intersect a circle of
   [radius_km] around [c], in reverse scan order.  The scan order is rows
   from south to north, and in each row the columns from west to east
   around the query's, or the whole ring from column 0.  Longitude span
   widens with latitude; near the poles we scan the whole ring. *)
let candidate_cells t c radius_km =
  let lat0 = lat_index t (Coord.lat c) and lon0 = lon_index t (Coord.lon c) in
  let deg_per_km_lat = 1.0 /. 111.19 in
  let dlat_cells =
    1 + int_of_float (Float.ceil (radius_km *. deg_per_km_lat /. t.cell_deg))
  in
  let nlon = t.nlon in
  let cells = ref [] in
  for di = -dlat_cells to dlat_cells do
    let lat_i = lat0 + di in
    if lat_i >= 0 && lat_i < t.nlat then begin
      (* Use the band edge closest to a pole: longitude cells shrink
         towards the poles, and a polar band must be scanned in full. *)
      let edge1 = Float.abs ((float_of_int lat_i *. t.cell_deg) -. 90.0) in
      let edge2 = Float.abs ((float_of_int (lat_i + 1) *. t.cell_deg) -. 90.0) in
      let band_lat = Float.max edge1 edge2 in
      let cos_lat = Float.max 0.01 (cos (Angle.deg_to_rad band_lat)) in
      let dlon_cells =
        1 + int_of_float (Float.ceil (radius_km *. deg_per_km_lat /. cos_lat /. t.cell_deg))
      in
      let base = lat_i * nlon in
      if band_lat >= 89.0 || (2 * dlon_cells) + 1 >= nlon then
        for lon_i = 0 to nlon - 1 do
          cells := (base + lon_i) :: !cells
        done
      else
        for dj = -dlon_cells to dlon_cells do
          cells := (base + ((((lon0 + dj) mod nlon) + nlon) mod nlon)) :: !cells
        done
    end
  done;
  !cells

(* Every entry whose latitude lies farther from the query's than
   [Distance.max_dlat_deg radius_km] is beyond the radius, so it is
   skipped before any trigonometry. *)
let within_km t c ~radius_km =
  if radius_km < 0.0 then invalid_arg "Grid_index.within_km: negative radius";
  let lat = Coord.lat c and cos_c = Distance.cos_lat c in
  let dlat_max = Distance.max_dlat_deg radius_km in
  (* Consing in reverse order yields cells in scan order and each cell's
     entries in insertion order. *)
  let acc = ref [] in
  List.iter
    (fun k ->
      let cell = t.cells.(k) in
      for i = cell.n - 1 downto 0 do
        let p = cell.pos.(i) in
        if Float.abs (Coord.lat p -. lat) <= dlat_max then begin
          let d = Distance.haversine_cos_km c ~cos_a:cos_c p ~cos_b:cell.cos.(i) in
          if d <= radius_km then acc := (p, cell.value.(i), d) :: !acc
        end
      done)
    (candidate_cells t c radius_km);
  !acc

(* A forward scan in [within_km]'s order that keeps a strictly nearer
   entry only, narrowing the latitude bound to the best distance so far. *)
let nearest_within ?(skip = fun _ -> false) t c ~radius_km =
  if radius_km < 0.0 then invalid_arg "Grid_index.nearest_within: negative radius";
  let lat = Coord.lat c and cos_c = Distance.cos_lat c in
  let best = ref None and best_d = ref radius_km in
  let dlat_max = ref (Distance.max_dlat_deg radius_km) in
  List.iter
    (fun k ->
      let cell = t.cells.(k) in
      for i = 0 to cell.n - 1 do
        let p = cell.pos.(i) in
        if Float.abs (Coord.lat p -. lat) <= !dlat_max && not (skip cell.value.(i)) then begin
          let d = Distance.haversine_cos_km c ~cos_a:cos_c p ~cos_b:cell.cos.(i) in
          let better = match !best with None -> d <= radius_km | Some _ -> d < !best_d in
          if better then begin
            best := Some (p, cell.value.(i), d);
            best_d := d;
            dlat_max := Distance.max_dlat_deg d
          end
        end
      done)
    (List.rev (candidate_cells t c radius_km));
  !best

let nearest t c =
  if t.count = 0 then None
  else
    (* Expanding-ring search: double the radius until something is found;
       cap at half the Earth's circumference, where the scan is global. *)
    let rec search radius =
      match nearest_within t c ~radius_km:radius with
      | None when radius < 21000.0 -> search (radius *. 2.0)
      | found -> found
    in
    search 250.0

let fold t ~init ~f =
  Array.fold_left
    (fun acc cell ->
      let acc = ref acc in
      for i = 0 to cell.n - 1 do
        acc := f !acc cell.pos.(i) cell.value.(i)
      done;
      !acc)
    init t.cells
