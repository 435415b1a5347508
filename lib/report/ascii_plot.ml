type series = { label : string; points : (float * float) list }

let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |]

let plot ?(width = 72) ?(height = 20) ?(log_x = false) ?(x_label = "") ?(y_label = "")
    ?(title = "") series =
  let all_points = List.concat_map (fun s -> s.points) series in
  let usable =
    List.filter
      (fun (x, _) -> (not log_x) || x > 0.0)
      all_points
  in
  if usable = [] then "(empty plot)\n"
  else begin
    let xs = List.map fst usable and ys = List.map snd usable in
    let tx x = if log_x then log10 x else x in
    let x_min = List.fold_left Float.min (tx (List.hd xs)) (List.map tx xs) in
    let x_max = List.fold_left Float.max (tx (List.hd xs)) (List.map tx xs) in
    let y_min = List.fold_left Float.min (List.hd ys) ys in
    let y_max = List.fold_left Float.max (List.hd ys) ys in
    let y_min, y_max = if y_max -. y_min < 1e-12 then (y_min -. 1.0, y_max +. 1.0) else (y_min, y_max) in
    let x_min, x_max = if x_max -. x_min < 1e-12 then (x_min -. 1.0, x_max +. 1.0) else (x_min, x_max) in
    let grid = Array.make_matrix height width ' ' in
    let put x y glyph =
      if log_x && x <= 0.0 then ()
      else begin
        let fx = (tx x -. x_min) /. (x_max -. x_min) in
        let fy = (y -. y_min) /. (y_max -. y_min) in
        let col = Int.min (width - 1) (Int.max 0 (int_of_float (fx *. float_of_int (width - 1)))) in
        let row =
          Int.min (height - 1)
            (Int.max 0 (int_of_float ((1.0 -. fy) *. float_of_int (height - 1))))
        in
        grid.(row).(col) <- glyph
      end
    in
    (* Connect consecutive points of each series with interpolated marks so
       the curve reads as a line. *)
    List.iteri
      (fun si s ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        let rec draw = function
          | (x1, y1) :: ((x2, y2) :: _ as rest) ->
              let steps = 24 in
              for k = 0 to steps do
                let f = float_of_int k /. float_of_int steps in
                let x =
                  if log_x then 10.0 ** ((tx x1 *. (1.0 -. f)) +. (tx x2 *. f))
                  else (x1 *. (1.0 -. f)) +. (x2 *. f)
                in
                let y = (y1 *. (1.0 -. f)) +. (y2 *. f) in
                put x y (if k = 0 || k = steps then glyph else glyph)
              done;
              draw rest
          | [ (x, y) ] -> put x y glyph
          | [] -> ()
        in
        draw s.points)
      series;
    let buf = Buffer.create (width * height) in
    if title <> "" then Buffer.add_string buf (title ^ "\n");
    let y_fmt v =
      if Float.abs v >= 1000.0 then Printf.sprintf "%8.0f" v else Printf.sprintf "%8.2f" v
    in
    Array.iteri
      (fun row line ->
        let y_val =
          y_max -. (float_of_int row /. float_of_int (height - 1) *. (y_max -. y_min))
        in
        if row mod 4 = 0 then Buffer.add_string buf (y_fmt y_val ^ " |")
        else Buffer.add_string buf "         |";
        Buffer.add_string buf (String.init width (fun c -> line.(c)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf ("         +" ^ String.make width '-' ^ "\n");
    let x_lo = if log_x then 10.0 ** x_min else x_min in
    let x_hi = if log_x then 10.0 ** x_max else x_max in
    Buffer.add_string buf
      (Printf.sprintf "          %-12g%s%12g  %s%s\n" x_lo
         (String.make (Int.max 0 (width - 26)) ' ')
         x_hi x_label
         (if log_x then " (log scale)" else ""));
    if y_label <> "" then Buffer.add_string buf ("          y: " ^ y_label ^ "\n");
    List.iteri
      (fun si s ->
        Buffer.add_string buf
          (Printf.sprintf "          %c %s\n" glyphs.(si mod Array.length glyphs) s.label))
      series;
    Buffer.contents buf
  end
