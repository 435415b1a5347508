(* Dinic with an adjacency-array residual network.  Node ids are remapped
   to a dense range; each undirected graph edge becomes two arcs with the
   full capacity plus their residual twins. *)

type result = {
  value : float;
  edge_flow : int -> float;
  source_side : Graph.node -> bool;
}

type network = {
  n : int;
  (* arcs as parallel arrays *)
  mutable m : int;
  arc_to : int array;
  arc_cap : float array;
  arc_next : int array;  (** next arc in the node's list *)
  head : int array;  (** first arc per node *)
  arc_edge : int array;  (** originating graph edge id, -1 for virtual *)
}

let create_network ~nodes ~arc_estimate =
  {
    n = nodes;
    m = 0;
    arc_to = Array.make arc_estimate 0;
    arc_cap = Array.make arc_estimate 0.0;
    arc_next = Array.make arc_estimate (-1);
    head = Array.make nodes (-1);
    arc_edge = Array.make arc_estimate (-1);
  }

let add_arc net u v cap edge =
  let a = net.m in
  net.arc_to.(a) <- v;
  net.arc_cap.(a) <- cap;
  net.arc_next.(a) <- net.head.(u);
  net.arc_edge.(a) <- edge;
  net.head.(u) <- a;
  net.m <- a + 1

(* Arc a's residual twin is a lxor 1. *)
let add_edge_arcs net u v cap edge =
  add_arc net u v cap edge;
  add_arc net v u cap edge

let add_directed net u v cap =
  add_arc net u v cap (-1);
  add_arc net v u 0.0 (-1)

let dinic net ~s ~t =
  let level = Array.make net.n (-1) in
  let iter = Array.make net.n (-1) in
  let inf = Float.infinity in
  let bfs () =
    Array.fill level 0 net.n (-1);
    let q = Queue.create () in
    level.(s) <- 0;
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      let a = ref net.head.(u) in
      while !a <> -1 do
        let v = net.arc_to.(!a) in
        if net.arc_cap.(!a) > 1e-12 && level.(v) < 0 then begin
          level.(v) <- level.(u) + 1;
          Queue.add v q
        end;
        a := net.arc_next.(!a)
      done
    done;
    level.(t) >= 0
  in
  let rec dfs u pushed =
    if u = t then pushed
    else begin
      let result = ref 0.0 in
      while !result = 0.0 && iter.(u) <> -1 do
        let a = iter.(u) in
        let v = net.arc_to.(a) in
        if net.arc_cap.(a) > 1e-12 && level.(v) = level.(u) + 1 then begin
          let d = dfs v (Float.min pushed net.arc_cap.(a)) in
          if d > 0.0 then begin
            net.arc_cap.(a) <- net.arc_cap.(a) -. d;
            let twin = a lxor 1 in
            net.arc_cap.(twin) <- net.arc_cap.(twin) +. d;
            result := d
          end
          else iter.(u) <- net.arc_next.(a)
        end
        else iter.(u) <- net.arc_next.(a)
      done;
      !result
    end
  in
  let total = ref 0.0 in
  while bfs () do
    Array.blit net.head 0 iter 0 net.n;
    let rec pump () =
      let d = dfs s inf in
      if d > 0.0 then begin
        total := !total +. d;
        pump ()
      end
    in
    pump ()
  done;
  !total

(* The one Dinic setup path: [edges add] streams undirected edges over
   dense node ranks [0, nodes), each laid out as two arcs in call order
   ([max_arcs] bounds the arcs added, terminal arcs included).  [extra]
   virtual nodes follow the real ones. *)
let build ~nodes ~extra ~max_arcs edges =
  let net = create_network ~nodes:(nodes + extra) ~arc_estimate:max_arcs in
  edges (fun u v c id ->
      if c < 0.0 then invalid_arg "Flow: negative capacity";
      if u <> v then add_edge_arcs net u v c id);
  net

(* A graph as an edge stream: nodes ranked in ascending order, edges in
   ascending id order. *)
let graph_edges g ~capacity =
  let nodes = Graph.nodes g in
  let id_map = Hashtbl.create 256 in
  List.iteri (fun i n -> Hashtbl.replace id_map n i) nodes;
  let edges add =
    Graph.fold_edges g ~init:() ~f:(fun () e ->
        add (Hashtbl.find id_map e.Graph.u) (Hashtbl.find id_map e.Graph.v)
          (capacity e.Graph.id) e.Graph.id)
  in
  (List.length nodes, id_map, edges)

let max_flow g ~capacity ~source ~sink =
  if source = sink then invalid_arg "Flow.max_flow: source = sink";
  if not (Graph.mem_node g source && Graph.mem_node g sink) then
    invalid_arg "Flow.max_flow: absent terminal";
  let nodes, id_map, edges = graph_edges g ~capacity in
  let net = build ~nodes ~extra:0 ~max_arcs:(2 * Graph.nb_edges g) edges in
  let s = Hashtbl.find id_map source and t = Hashtbl.find id_map sink in
  let original_cap = Array.sub net.arc_cap 0 net.m in
  let value = dinic net ~s ~t in
  (* Per-edge |flow|: each arc starts at the edge capacity, so the net
     transfer equals the capacity shift of the forward arc (pushes in the
     two directions cancel in the residual). *)
  let edge_flow_tbl = Hashtbl.create 64 in
  let a = ref 0 in
  while !a < net.m do
    let e = net.arc_edge.(!a) in
    if e >= 0 && not (Hashtbl.mem edge_flow_tbl e) then begin
      let delta = Float.abs (net.arc_cap.(!a) -. original_cap.(!a)) in
      Hashtbl.replace edge_flow_tbl e delta
    end;
    a := !a + 2
  done;
  (* Residual reachability from s. *)
  let reach = Array.make net.n false in
  let q = Queue.create () in
  reach.(s) <- true;
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    let a = ref net.head.(u) in
    while !a <> -1 do
      let v = net.arc_to.(!a) in
      if net.arc_cap.(!a) > 1e-12 && not reach.(v) then begin
        reach.(v) <- true;
        Queue.add v q
      end;
      a := net.arc_next.(!a)
    done
  done;
  {
    value;
    edge_flow =
      (fun e -> Option.value ~default:0.0 (Hashtbl.find_opt edge_flow_tbl e));
    source_side =
      (fun node ->
        match Hashtbl.find_opt id_map node with
        | Some i -> reach.(i)
        | None -> false);
  }

(* Super-source [nodes] and super-sink [nodes + 1] over the edge stream,
   or [None] when a side is empty. *)
let multi_network ~nodes ~max_edges ~edges ~sources ~sinks =
  if List.exists (fun s -> List.mem s sinks) sources then
    invalid_arg "Flow.max_flow_multi: overlapping groups";
  if sources = [] || sinks = [] then None
  else begin
    let terminals = List.length sources + List.length sinks in
    let net = build ~nodes ~extra:2 ~max_arcs:(2 * (max_edges + terminals)) edges in
    let s = nodes and t = nodes + 1 in
    let big = 1e15 in
    List.iter (fun x -> add_directed net s x big) sources;
    List.iter (fun x -> add_directed net x t big) sinks;
    Some (net, s, t)
  end

let max_flow_multi_edges ~nodes ~max_edges ~edges ~sources ~sinks =
  if List.exists (fun x -> x < 0 || x >= nodes) (sources @ sinks) then
    invalid_arg "Flow.max_flow_multi_edges: terminal outside [0, nodes)";
  match multi_network ~nodes ~max_edges ~edges ~sources ~sinks with
  | None -> 0.0
  | Some (net, s, t) -> dinic net ~s ~t

(* The graph entries drop absent terminals, then rank the rest. *)
let graph_multi g ~capacity ~sources ~sinks =
  let nodes, id_map, edges = graph_edges g ~capacity in
  let ranks l = List.filter_map (Hashtbl.find_opt id_map) l in
  ( id_map,
    multi_network ~nodes ~max_edges:(Graph.nb_edges g) ~edges ~sources:(ranks sources)
      ~sinks:(ranks sinks) )

let max_flow_multi g ~capacity ~sources ~sinks =
  match graph_multi g ~capacity ~sources ~sinks with
  | _, None -> 0.0
  | _, Some (net, s, t) -> dinic net ~s ~t

let min_cut_edges_multi g ~capacity ~sources ~sinks =
  match graph_multi g ~capacity ~sources ~sinks with
  | _, None -> []
  | id_map, Some (net, s, t) ->
      let _ = dinic net ~s ~t in
      let reach = Array.make net.n false in
      let q = Queue.create () in
      reach.(s) <- true;
      Queue.add s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        let a = ref net.head.(u) in
        while !a <> -1 do
          let v = net.arc_to.(!a) in
          if net.arc_cap.(!a) > 1e-12 && not reach.(v) then begin
            reach.(v) <- true;
            Queue.add v q
          end;
          a := net.arc_next.(!a)
        done
      done;
      let side node =
        match Hashtbl.find_opt id_map node with Some i -> reach.(i) | None -> false
      in
      Graph.fold_edges g ~init:[] ~f:(fun acc e ->
          if e.Graph.u <> e.Graph.v && side e.Graph.u <> side e.Graph.v then
            e.Graph.id :: acc
          else acc)
      |> List.sort Int.compare

let min_cut_edges g ~capacity ~source ~sink =
  let r = max_flow g ~capacity ~source ~sink in
  Graph.fold_edges g ~init:[] ~f:(fun acc e ->
      if e.Graph.u <> e.Graph.v && r.source_side e.Graph.u <> r.source_side e.Graph.v then
        e.Graph.id :: acc
      else acc)
  |> List.sort Int.compare
