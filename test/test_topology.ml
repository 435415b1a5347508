(* Tests for the Netgraph library: multigraph, traversals, shortest paths,
   centrality and structural fragility. *)

open Netgraph

(* 0-1-2-3 path plus a 4-5-6 triangle. *)
let two_components =
  Graph.of_edges [ (0, 0, 1); (1, 1, 2); (2, 2, 3); (3, 4, 5); (4, 5, 6); (5, 6, 4) ]

(* Cycle 1-2-3-4-1 hanging off node 0 via 0-1: node 1 is the only
   articulation point and 0-1 the only bridge. *)
let cycle_with_tail =
  Graph.of_edges [ (0, 0, 1); (1, 1, 2); (2, 2, 3); (3, 3, 4); (4, 4, 1) ]

(* The counterexample that broke a naive articulation implementation:
   tree path 1-2-3-4 with back edges 4-2 and 3-1.  No articulation points,
   no bridges. *)
let braced_path =
  Graph.of_edges [ (0, 1, 2); (1, 2, 3); (2, 3, 4); (3, 4, 2); (4, 3, 1) ]

(* --- Graph --- *)

let test_empty_graph () =
  Alcotest.(check int) "no nodes" 0 (Graph.nb_nodes Graph.empty);
  Alcotest.(check int) "no edges" 0 (Graph.nb_edges Graph.empty);
  Alcotest.(check (list int)) "no neighbors" [] (List.map fst (Graph.neighbors Graph.empty 5))

let test_add_node_idempotent () =
  let g = Graph.add_node (Graph.add_node Graph.empty 3) 3 in
  Alcotest.(check int) "one node" 1 (Graph.nb_nodes g)

let test_add_edge_creates_endpoints () =
  let g = Graph.add_edge Graph.empty ~id:0 7 9 in
  Alcotest.(check bool) "node 7" true (Graph.mem_node g 7);
  Alcotest.(check bool) "node 9" true (Graph.mem_node g 9);
  Alcotest.(check int) "degree" 1 (Graph.degree g 7)

let test_duplicate_edge_id_rejected () =
  let g = Graph.add_edge Graph.empty ~id:0 1 2 in
  Alcotest.check_raises "dup id" (Invalid_argument "Graph.add_edge: duplicate edge id 0")
    (fun () -> ignore (Graph.add_edge g ~id:0 3 4))

let test_multigraph_parallel_edges () =
  let g = Graph.of_edges [ (0, 1, 2); (1, 1, 2) ] in
  Alcotest.(check int) "two edges" 2 (Graph.nb_edges g);
  Alcotest.(check int) "degree counts both" 2 (Graph.degree g 1);
  let g' = Graph.remove_edge g 0 in
  Alcotest.(check int) "one left" 1 (Graph.nb_edges g');
  Alcotest.(check bool) "still adjacent" true
    (List.exists (fun (m, _) -> m = 2) (Graph.neighbors g' 1))

let test_self_loop_degree () =
  let g = Graph.add_edge Graph.empty ~id:0 1 1 in
  Alcotest.(check int) "self-loop degree 2" 2 (Graph.degree g 1);
  Alcotest.(check int) "appears once in neighbors" 1 (List.length (Graph.neighbors g 1))

let test_remove_edge_noop_when_absent () =
  let g = Graph.of_edges [ (0, 1, 2) ] in
  let g' = Graph.remove_edge g 99 in
  Alcotest.(check int) "unchanged" 1 (Graph.nb_edges g')

let test_remove_node_removes_incident () =
  let g = Graph.of_edges [ (0, 1, 2); (1, 2, 3); (2, 3, 1) ] in
  let g' = Graph.remove_node g 2 in
  Alcotest.(check int) "one edge left" 1 (Graph.nb_edges g');
  Alcotest.(check bool) "node gone" false (Graph.mem_node g' 2);
  Alcotest.(check int) "degrees updated" 1 (Graph.degree g' 1)

let test_nodes_edges_sorted () =
  let g = Graph.of_edges [ (2, 5, 1); (0, 3, 4); (1, 1, 3) ] in
  Alcotest.(check (list int)) "nodes ascending" [ 1; 3; 4; 5 ] (Graph.nodes g);
  Alcotest.(check (list int)) "edges ascending" [ 0; 1; 2 ]
    (List.map (fun e -> e.Graph.id) (Graph.edges g))

let test_find_edge () =
  let g = Graph.of_edges [ (7, 1, 2) ] in
  (match Graph.find_edge g 7 with
  | Some e ->
      Alcotest.(check int) "u" 1 e.Graph.u;
      Alcotest.(check int) "v" 2 e.Graph.v
  | None -> Alcotest.fail "edge not found");
  Alcotest.(check bool) "absent" true (Graph.find_edge g 0 = None)

let test_fold () =
  let g = two_components in
  let nodes = Graph.fold_nodes g ~init:0 ~f:(fun acc _ -> acc + 1) in
  let edges = Graph.fold_edges g ~init:0 ~f:(fun acc _ -> acc + 1) in
  Alcotest.(check int) "7 nodes" 7 nodes;
  Alcotest.(check int) "6 edges" 6 edges

(* --- Traversal --- *)

let test_bfs_distances () =
  let hops = Traversal.bfs two_components 0 in
  Alcotest.(check (list (pair int int))) "path distances"
    [ (0, 0); (1, 1); (2, 2); (3, 3) ]
    (List.sort compare hops)

let test_bfs_absent_source () =
  Alcotest.(check (list (pair int int))) "absent" [] (Traversal.bfs two_components 99)

let test_connected_components () =
  let comps = Traversal.connected_components two_components in
  Alcotest.(check (list (list int))) "two components" [ [ 0; 1; 2; 3 ]; [ 4; 5; 6 ] ] comps

let test_component_sizes_desc () =
  Alcotest.(check (list int)) "sizes" [ 4; 3 ] (Traversal.component_sizes two_components)

let test_is_connected () =
  Alcotest.(check bool) "two comps" false (Traversal.is_connected two_components);
  Alcotest.(check bool) "cycle" true (Traversal.is_connected cycle_with_tail);
  Alcotest.(check bool) "empty" true (Traversal.is_connected Graph.empty)

let test_same_component () =
  Alcotest.(check bool) "0 and 3" true (Traversal.same_component two_components 0 3);
  Alcotest.(check bool) "0 and 4" false (Traversal.same_component two_components 0 4);
  Alcotest.(check bool) "absent" false (Traversal.same_component two_components 0 99)

(* --- Paths --- *)

let weighted =
  (* 0-1 (1), 1-2 (2), 0-2 (10), 2-3 (1). *)
  Graph.of_edges [ (0, 0, 1); (1, 1, 2); (2, 0, 2); (3, 2, 3) ]

let weight = function 0 -> 1.0 | 1 -> 2.0 | 2 -> 10.0 | 3 -> 1.0 | _ -> 1.0

let test_dijkstra_distances () =
  let dist = Paths.dijkstra weighted ~weight 0 in
  Alcotest.(check (float 1e-9)) "to 2 via 1" 3.0 (Hashtbl.find dist 2);
  Alcotest.(check (float 1e-9)) "to 3" 4.0 (Hashtbl.find dist 3)

let test_shortest_path_route () =
  match Paths.shortest_path weighted ~weight 0 3 with
  | Some (d, route) ->
      Alcotest.(check (float 1e-9)) "distance" 4.0 d;
      Alcotest.(check (list int)) "route" [ 0; 1; 2; 3 ] route
  | None -> Alcotest.fail "no path"

let test_shortest_path_disconnected () =
  Alcotest.(check bool) "none across components" true
    (Paths.shortest_path two_components ~weight:(fun _ -> 1.0) 0 5 = None)

let test_negative_weight_rejected () =
  Alcotest.check_raises "negative" (Invalid_argument "Paths.dijkstra: negative weight")
    (fun () -> ignore (Paths.dijkstra weighted ~weight:(fun _ -> -1.0) 0))

(* --- Centrality --- *)

let star = Graph.of_edges [ (0, 0, 1); (1, 0, 2); (2, 0, 3); (3, 0, 4) ]

let test_degree_ranking () =
  match Centrality.degree star with
  | (n, d) :: _ ->
      Alcotest.(check int) "hub" 0 n;
      Alcotest.(check int) "hub degree" 4 d
  | [] -> Alcotest.fail "empty"

let test_betweenness_star () =
  let cb = Centrality.betweenness star in
  (* Centre lies on all C(4,2) = 6 shortest pairs. *)
  Alcotest.(check (float 1e-9)) "centre" 6.0 (Hashtbl.find cb 0);
  Alcotest.(check (float 1e-9)) "leaf" 0.0 (Hashtbl.find cb 1)

let test_betweenness_path () =
  let path = Graph.of_edges [ (0, 0, 1); (1, 1, 2) ] in
  let cb = Centrality.betweenness path in
  Alcotest.(check (float 1e-9)) "middle" 1.0 (Hashtbl.find cb 1);
  Alcotest.(check (float 1e-9)) "end" 0.0 (Hashtbl.find cb 0)

let test_top_k () =
  let scores = [ ("a", 1.0); ("b", 3.0); ("c", 2.0) ] in
  Alcotest.(check (list (pair string (float 1e-9)))) "top 2"
    [ ("b", 3.0); ("c", 2.0) ]
    (Centrality.top_k scores ~k:2);
  Alcotest.check_raises "negative k" (Invalid_argument "Centrality.top_k: negative k")
    (fun () -> ignore (Centrality.top_k scores ~k:(-1)))

(* --- Structure --- *)

let test_bridges_path_all () =
  let path = Graph.of_edges [ (0, 0, 1); (1, 1, 2); (2, 2, 3) ] in
  Alcotest.(check (list int)) "every edge a bridge" [ 0; 1; 2 ] (Structure.bridges path)

let test_bridges_cycle_none () =
  let cycle = Graph.of_edges [ (0, 0, 1); (1, 1, 2); (2, 2, 0) ] in
  Alcotest.(check (list int)) "no bridges" [] (Structure.bridges cycle)

let test_bridges_cycle_with_tail () =
  Alcotest.(check (list int)) "only tail edge" [ 0 ] (Structure.bridges cycle_with_tail)

let test_bridges_parallel_edges_not_bridges () =
  let g = Graph.of_edges [ (0, 0, 1); (1, 0, 1); (2, 1, 2) ] in
  Alcotest.(check (list int)) "only the single edge" [ 2 ] (Structure.bridges g)

let test_articulation_cycle_with_tail () =
  Alcotest.(check (list int)) "node 1 cuts" [ 1 ]
    (Structure.articulation_points cycle_with_tail)

let test_articulation_braced_path_none () =
  Alcotest.(check (list int)) "no articulation" [] (Structure.articulation_points braced_path);
  Alcotest.(check (list int)) "no bridges" [] (Structure.bridges braced_path)

let test_articulation_two_triangles () =
  (* Two triangles sharing node 2. *)
  let g = Graph.of_edges [ (0, 0, 1); (1, 1, 2); (2, 2, 0); (3, 2, 3); (4, 3, 4); (5, 4, 2) ] in
  Alcotest.(check (list int)) "shared node" [ 2 ] (Structure.articulation_points g)

let test_k_core () =
  (* Triangle with a pendant node. *)
  let g = Graph.of_edges [ (0, 0, 1); (1, 1, 2); (2, 2, 0); (3, 2, 3) ] in
  let core2 = Structure.k_core g ~k:2 in
  Alcotest.(check (list int)) "triangle survives" [ 0; 1; 2 ] (Graph.nodes core2);
  Alcotest.(check int) "empty 3-core" 0 (Graph.nb_nodes (Structure.k_core g ~k:3));
  Alcotest.check_raises "negative k" (Invalid_argument "Structure.k_core: negative k")
    (fun () -> ignore (Structure.k_core g ~k:(-1)))

(* --- Flow --- *)

(* Classic max-flow example: s=0, t=5 with unit-ish capacities. *)
let flow_graph =
  Graph.of_edges [ (0, 0, 1); (1, 0, 2); (2, 1, 3); (3, 2, 4); (4, 3, 5); (5, 4, 5); (6, 1, 2) ]

let cap = function
  | 0 -> 10.0 | 1 -> 10.0 | 2 -> 4.0 | 3 -> 9.0 | 4 -> 10.0 | 5 -> 10.0 | 6 -> 2.0 | _ -> 0.0

let test_max_flow_value () =
  let r = Flow.max_flow flow_graph ~capacity:cap ~source:0 ~sink:5 in
  (* Paths: 0-1-3-5 limited by 4 (edge 2); 0-2-4-5 limited by 9 (edge 3);
     0-1-2-4-5 limited by 2 (edge 6) but edge 3 already carries 9 of 9.
     Max flow = 4 + 9 = 13. *)
  Alcotest.(check (float 1e-9)) "value 13" 13.0 r.Flow.value

let test_max_flow_bottleneck_respected () =
  let r = Flow.max_flow flow_graph ~capacity:cap ~source:0 ~sink:5 in
  Graph.fold_edges flow_graph ~init:() ~f:(fun () e ->
      Alcotest.(check bool) "flow <= capacity" true
        (r.Flow.edge_flow e.Graph.id <= cap e.Graph.id +. 1e-9))

let test_max_flow_path_graph () =
  let g = Graph.of_edges [ (0, 0, 1); (1, 1, 2) ] in
  let r = Flow.max_flow g ~capacity:(fun e -> if e = 0 then 5.0 else 3.0) ~source:0 ~sink:2 in
  Alcotest.(check (float 1e-9)) "min of capacities" 3.0 r.Flow.value;
  Alcotest.(check bool) "cut separates" true
    (r.Flow.source_side 0 && not (r.Flow.source_side 2))

let test_max_flow_disconnected () =
  let g = Graph.of_edges [ (0, 0, 1); (1, 2, 3) ] in
  let r = Flow.max_flow g ~capacity:(fun _ -> 1.0) ~source:0 ~sink:3 in
  Alcotest.(check (float 1e-9)) "zero" 0.0 r.Flow.value

let test_max_flow_parallel_edges_add () =
  let g = Graph.of_edges [ (0, 0, 1); (1, 0, 1) ] in
  let r = Flow.max_flow g ~capacity:(fun _ -> 2.0) ~source:0 ~sink:1 in
  Alcotest.(check (float 1e-9)) "parallel capacities add" 4.0 r.Flow.value

let test_max_flow_validation () =
  Alcotest.check_raises "source=sink" (Invalid_argument "Flow.max_flow: source = sink")
    (fun () -> ignore (Flow.max_flow flow_graph ~capacity:cap ~source:0 ~sink:0));
  Alcotest.check_raises "negative capacity" (Invalid_argument "Flow: negative capacity")
    (fun () ->
      ignore (Flow.max_flow flow_graph ~capacity:(fun _ -> -1.0) ~source:0 ~sink:5))

let test_min_cut_matches_flow () =
  let cut = Flow.min_cut_edges flow_graph ~capacity:cap ~source:0 ~sink:5 in
  let cut_capacity = List.fold_left (fun a e -> a +. cap e) 0.0 cut in
  Alcotest.(check (float 1e-9)) "cut value = flow value" 13.0 cut_capacity

let test_multi_flow () =
  (* Two sources 0,1 each with an independent path to sink 4. *)
  let g = Graph.of_edges [ (0, 0, 2); (1, 1, 3); (2, 2, 4); (3, 3, 4) ] in
  let v = Flow.max_flow_multi g ~capacity:(fun _ -> 1.0) ~sources:[ 0; 1 ] ~sinks:[ 4 ] in
  Alcotest.(check (float 1e-9)) "both paths used" 2.0 v;
  Alcotest.(check (float 1e-9)) "missing side" 0.0
    (Flow.max_flow_multi g ~capacity:(fun _ -> 1.0) ~sources:[] ~sinks:[ 4 ]);
  Alcotest.check_raises "overlap" (Invalid_argument "Flow.max_flow_multi: overlapping groups")
    (fun () ->
      ignore (Flow.max_flow_multi g ~capacity:(fun _ -> 1.0) ~sources:[ 0 ] ~sinks:[ 0 ]))

let test_min_cut_multi () =
  let g = Graph.of_edges [ (0, 0, 2); (1, 1, 2); (2, 2, 3) ] in
  let cut =
    Flow.min_cut_edges_multi g ~capacity:(fun _ -> 1.0) ~sources:[ 0; 1 ] ~sinks:[ 3 ]
  in
  Alcotest.(check (list int)) "bridge edge is the cut" [ 2 ] cut

(* --- QCheck --- *)

let arb_edge_list = QCheck.(small_list (pair (int_bound 20) (int_bound 20)))

let graph_of pairs = Graph.of_edges (List.mapi (fun i (u, v) -> (i, u, v)) pairs)

let prop_components_partition =
  QCheck.Test.make ~name:"components partition the nodes" ~count:200 arb_edge_list
    (fun pairs ->
      let g = graph_of pairs in
      let comps = Traversal.connected_components g in
      let all = List.concat comps |> List.sort Int.compare in
      all = Graph.nodes g)

let prop_bridge_removal_disconnects =
  QCheck.Test.make ~name:"removing a bridge splits its component" ~count:100 arb_edge_list
    (fun pairs ->
      let g = graph_of pairs in
      List.for_all
        (fun bid ->
          match Graph.find_edge g bid with
          | None -> false
          | Some e ->
              e.Graph.u = e.Graph.v
              || not (Traversal.same_component (Graph.remove_edge g bid) e.Graph.u e.Graph.v))
        (Structure.bridges g))

let prop_non_bridge_removal_keeps_connectivity =
  QCheck.Test.make ~name:"removing a non-bridge keeps endpoints connected" ~count:100
    arb_edge_list (fun pairs ->
      let g = graph_of pairs in
      let bridges = Structure.bridges g in
      Graph.fold_edges g ~init:true ~f:(fun acc e ->
          acc
          && (List.mem e.Graph.id bridges
             || Traversal.same_component (Graph.remove_edge g e.Graph.id) e.Graph.u e.Graph.v)))

let prop_dijkstra_matches_bfs_on_unit_weights =
  QCheck.Test.make ~name:"dijkstra = bfs under unit weights" ~count:100 arb_edge_list
    (fun pairs ->
      let g = graph_of pairs in
      match Graph.nodes g with
      | [] -> true
      | src :: _ ->
          let dist = Paths.dijkstra g ~weight:(fun _ -> 1.0) src in
          List.for_all
            (fun (n, d) ->
              match Hashtbl.find_opt dist n with
              | Some dd -> Float.abs (dd -. float_of_int d) < 1e-9
              | None -> false)
            (Traversal.bfs g src))

let prop_flow_bounded_by_degree_capacity =
  QCheck.Test.make ~name:"max flow bounded by source capacity" ~count:60 arb_edge_list
    (fun pairs ->
      let g = graph_of pairs in
      match Graph.nodes g with
      | a :: b :: _ when a <> b ->
          let r = Flow.max_flow g ~capacity:(fun _ -> 1.0) ~source:a ~sink:b in
          r.Flow.value <= float_of_int (Graph.degree g a) +. 1e-9
          && r.Flow.value >= 0.0
      | _ -> true)

let prop_min_cut_capacity_equals_flow =
  QCheck.Test.make ~name:"min cut capacity = max flow" ~count:60 arb_edge_list
    (fun pairs ->
      let g = graph_of pairs in
      match Graph.nodes g with
      | a :: b :: _ when a <> b ->
          let r = Flow.max_flow g ~capacity:(fun _ -> 1.0) ~source:a ~sink:b in
          let cut = Flow.min_cut_edges g ~capacity:(fun _ -> 1.0) ~source:a ~sink:b in
          Float.abs (float_of_int (List.length cut) -. r.Flow.value) < 1e-6
      | _ -> true)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_components_partition; prop_bridge_removal_disconnects;
      prop_non_bridge_removal_keeps_connectivity; prop_dijkstra_matches_bfs_on_unit_weights;
      prop_flow_bounded_by_degree_capacity; prop_min_cut_capacity_equals_flow ]

let () =
  Alcotest.run "netgraph"
    [
      ( "graph",
        [ Alcotest.test_case "empty" `Quick test_empty_graph;
          Alcotest.test_case "add_node idempotent" `Quick test_add_node_idempotent;
          Alcotest.test_case "add_edge endpoints" `Quick test_add_edge_creates_endpoints;
          Alcotest.test_case "duplicate edge id" `Quick test_duplicate_edge_id_rejected;
          Alcotest.test_case "parallel edges" `Quick test_multigraph_parallel_edges;
          Alcotest.test_case "self-loop" `Quick test_self_loop_degree;
          Alcotest.test_case "remove absent edge" `Quick test_remove_edge_noop_when_absent;
          Alcotest.test_case "remove node" `Quick test_remove_node_removes_incident;
          Alcotest.test_case "sorted accessors" `Quick test_nodes_edges_sorted;
          Alcotest.test_case "find_edge" `Quick test_find_edge;
          Alcotest.test_case "folds" `Quick test_fold ] );
      ( "traversal",
        [ Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "bfs absent source" `Quick test_bfs_absent_source;
          Alcotest.test_case "connected components" `Quick test_connected_components;
          Alcotest.test_case "component sizes" `Quick test_component_sizes_desc;
          Alcotest.test_case "is_connected" `Quick test_is_connected;
          Alcotest.test_case "same_component" `Quick test_same_component ] );
      ( "paths",
        [ Alcotest.test_case "dijkstra distances" `Quick test_dijkstra_distances;
          Alcotest.test_case "shortest path route" `Quick test_shortest_path_route;
          Alcotest.test_case "disconnected" `Quick test_shortest_path_disconnected;
          Alcotest.test_case "negative weight" `Quick test_negative_weight_rejected ] );
      ( "centrality",
        [ Alcotest.test_case "degree ranking" `Quick test_degree_ranking;
          Alcotest.test_case "betweenness star" `Quick test_betweenness_star;
          Alcotest.test_case "betweenness path" `Quick test_betweenness_path;
          Alcotest.test_case "top_k" `Quick test_top_k ] );
      ( "structure",
        [ Alcotest.test_case "bridges path" `Quick test_bridges_path_all;
          Alcotest.test_case "bridges cycle" `Quick test_bridges_cycle_none;
          Alcotest.test_case "bridges cycle+tail" `Quick test_bridges_cycle_with_tail;
          Alcotest.test_case "parallel edges not bridges" `Quick
            test_bridges_parallel_edges_not_bridges;
          Alcotest.test_case "articulation cycle+tail" `Quick test_articulation_cycle_with_tail;
          Alcotest.test_case "braced path has none" `Quick test_articulation_braced_path_none;
          Alcotest.test_case "two triangles" `Quick test_articulation_two_triangles;
          Alcotest.test_case "k-core" `Quick test_k_core ] );
      ( "flow",
        [ Alcotest.test_case "max flow value" `Quick test_max_flow_value;
          Alcotest.test_case "bottleneck respected" `Quick test_max_flow_bottleneck_respected;
          Alcotest.test_case "path graph" `Quick test_max_flow_path_graph;
          Alcotest.test_case "disconnected" `Quick test_max_flow_disconnected;
          Alcotest.test_case "parallel edges" `Quick test_max_flow_parallel_edges_add;
          Alcotest.test_case "validation" `Quick test_max_flow_validation;
          Alcotest.test_case "min cut = flow" `Quick test_min_cut_matches_flow;
          Alcotest.test_case "multi flow" `Quick test_multi_flow;
          Alcotest.test_case "multi min cut" `Quick test_min_cut_multi ] );
      ("properties", qcheck_tests);
    ]
