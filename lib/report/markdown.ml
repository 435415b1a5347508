let escape_heading s =
  String.map (fun c -> if c = '\n' || c = '\r' || c = '`' then ' ' else c) s

let section ~title ~body =
  let body = if String.length body > 0 && body.[String.length body - 1] = '\n' then body else body ^ "\n" in
  Printf.sprintf "## %s\n\n```\n%s```\n" (escape_heading title) body

let document figures =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# solarstorm results\n\n\
     Generated by the figure harness; see EXPERIMENTS.md for the paper comparison.\n\n";
  List.iter
    (fun (id, text) -> Buffer.add_string buf (section ~title:id ~body:text ^ "\n"))
    figures;
  Buffer.contents buf

let write_results ~path figures = Csv.write_file ~path (document figures)
