let bfs g src =
  if not (Graph.mem_node g src) then []
  else begin
    let seen = Hashtbl.create 64 in
    Hashtbl.add seen src ();
    let q = Queue.create () in
    Queue.add (src, 0) q;
    let out = ref [] in
    while not (Queue.is_empty q) do
      let n, d = Queue.pop q in
      out := (n, d) :: !out;
      List.iter
        (fun (m, _) ->
          if not (Hashtbl.mem seen m) then begin
            Hashtbl.add seen m ();
            Queue.add (m, d + 1) q
          end)
        (Graph.neighbors g n)
    done;
    List.rev !out
  end

let reachable g src = List.map fst (bfs g src)

let reachable_set g src =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (n, _) -> Hashtbl.replace tbl n ()) (bfs g src);
  tbl

let cc_calls = Obs.Metrics.counter "graph.cc_calls"

let connected_components g =
  Obs.Metrics.incr cc_calls;
  Obs.Span.with_ ~name:"graph.connected_components" @@ fun () ->
  let seen = Hashtbl.create 64 in
  let comps =
    Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
        if Hashtbl.mem seen n then acc
        else begin
          let comp = reachable g n in
          List.iter (fun m -> Hashtbl.replace seen m ()) comp;
          List.sort Int.compare comp :: acc
        end)
  in
  List.sort
    (fun a b ->
      match (a, b) with
      | x :: _, y :: _ -> Int.compare x y
      | [], _ | _, [] -> 0)
    comps

let component_sizes g =
  connected_components g |> List.map List.length
  |> List.sort (fun a b -> Int.compare b a)

let is_connected g =
  match component_sizes g with [] | [ _ ] -> true | _ -> false

let same_component g a b =
  if not (Graph.mem_node g a && Graph.mem_node g b) then false
  else if a = b then true
  else
    let tbl = reachable_set g a in
    Hashtbl.mem tbl b
