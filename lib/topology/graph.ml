module Imap = Map.Make (Int)

type node = int

type edge = { id : int; u : node; v : node }

type t = {
  adj : (node * int) list Imap.t;  (** node -> (neighbor, edge id) list *)
  edge_tbl : edge Imap.t;
}

let empty = { adj = Imap.empty; edge_tbl = Imap.empty }

let add_node g n =
  if Imap.mem n g.adj then g else { g with adj = Imap.add n [] g.adj }

let push_adj adj n entry =
  Imap.update n
    (function None -> Some [ entry ] | Some l -> Some (entry :: l))
    adj

let add_edge g ~id u v =
  if Imap.mem id g.edge_tbl then
    invalid_arg (Printf.sprintf "Graph.add_edge: duplicate edge id %d" id);
  let adj = push_adj g.adj u (v, id) in
  let adj = if u = v then adj else push_adj adj v (u, id) in
  let adj = if Imap.mem v adj then adj else Imap.add v [] adj in
  let adj = if Imap.mem u adj then adj else Imap.add u [] adj in
  { adj; edge_tbl = Imap.add id { id; u; v } g.edge_tbl }

let remove_edge g id =
  match Imap.find_opt id g.edge_tbl with
  | None -> g
  | Some e ->
      let drop n adj =
        Imap.update n
          (function
            | None -> None
            | Some l -> Some (List.filter (fun (_, eid) -> eid <> id) l))
          adj
      in
      let adj = drop e.u g.adj in
      let adj = if e.u = e.v then adj else drop e.v adj in
      { adj; edge_tbl = Imap.remove id g.edge_tbl }

let remove_node g n =
  match Imap.find_opt n g.adj with
  | None -> g
  | Some incident ->
      let g = List.fold_left (fun g (_, eid) -> remove_edge g eid) g incident in
      { g with adj = Imap.remove n g.adj }

let mem_node g n = Imap.mem n g.adj
let find_edge g id = Imap.find_opt id g.edge_tbl

let nodes g = Imap.fold (fun n _ acc -> n :: acc) g.adj [] |> List.rev
let edges g = Imap.fold (fun _ e acc -> e :: acc) g.edge_tbl [] |> List.rev

let nb_nodes g = Imap.cardinal g.adj
let nb_edges g = Imap.cardinal g.edge_tbl

let neighbors g n = match Imap.find_opt n g.adj with None -> [] | Some l -> l

let degree g n =
  List.fold_left
    (fun acc (m, _) -> acc + (if m = n then 2 else 1))
    0 (neighbors g n)

let fold_nodes g ~init ~f = Imap.fold (fun n _ acc -> f acc n) g.adj init
let fold_edges g ~init ~f = Imap.fold (fun _ e acc -> f acc e) g.edge_tbl init

let of_edges l = List.fold_left (fun g (id, u, v) -> add_edge g ~id u v) empty l
