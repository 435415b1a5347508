(* Brandes 2001, unweighted variant. *)
let betweenness g =
  let cb = Hashtbl.create 64 in
  Graph.fold_nodes g ~init:() ~f:(fun () n -> Hashtbl.replace cb n 0.0);
  let process s =
    let stack = ref [] in
    let pred = Hashtbl.create 64 in
    let sigma = Hashtbl.create 64 in
    let dist = Hashtbl.create 64 in
    Hashtbl.replace sigma s 1.0;
    Hashtbl.replace dist s 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      stack := v :: !stack;
      let dv = Hashtbl.find dist v in
      List.iter
        (fun (w, _) ->
          (match Hashtbl.find_opt dist w with
          | None ->
              Hashtbl.replace dist w (dv + 1);
              Queue.add w q
          | Some _ -> ());
          if Hashtbl.find dist w = dv + 1 then begin
            let sv = Hashtbl.find sigma v in
            let sw = Option.value ~default:0.0 (Hashtbl.find_opt sigma w) in
            Hashtbl.replace sigma w (sw +. sv);
            Hashtbl.replace pred w
              (v :: Option.value ~default:[] (Hashtbl.find_opt pred w))
          end)
        (Graph.neighbors g v)
    done;
    let delta = Hashtbl.create 64 in
    List.iter
      (fun w ->
        let dw = Option.value ~default:0.0 (Hashtbl.find_opt delta w) in
        List.iter
          (fun v ->
            let sv = Hashtbl.find sigma v and sw = Hashtbl.find sigma w in
            let dv = Option.value ~default:0.0 (Hashtbl.find_opt delta v) in
            Hashtbl.replace delta v (dv +. (sv /. sw *. (1.0 +. dw))))
          (Option.value ~default:[] (Hashtbl.find_opt pred w));
        if w <> s then
          Hashtbl.replace cb w (Hashtbl.find cb w +. dw))
      !stack
  in
  Graph.fold_nodes g ~init:() ~f:(fun () n -> process n);
  (* Undirected graphs count each pair twice. *)
  Hashtbl.iter (fun k v -> Hashtbl.replace cb k (v /. 2.0)) cb;
  cb

let top_k scores ~k =
  if k < 0 then invalid_arg "Centrality.top_k: negative k";
  let sorted = List.sort (fun (_, a) (_, b) -> Float.compare b a) scores in
  List.filteri (fun i _ -> i < k) sorted
