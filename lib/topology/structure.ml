(* Iterative Tarjan low-link computation.  Recursion is avoided because the
   infrastructure graphs reach tens of thousands of nodes. *)

type lowlink = {
  disc : (Graph.node, int) Hashtbl.t;
  low : (Graph.node, int) Hashtbl.t;
  tree_parent : (Graph.node, Graph.node * int) Hashtbl.t;
      (** child -> (parent, tree edge id); roots absent *)
  root_children : (Graph.node, int) Hashtbl.t;  (** root -> #tree children *)
}

let compute_lowlink g =
  let st =
    {
      disc = Hashtbl.create 64;
      low = Hashtbl.create 64;
      tree_parent = Hashtbl.create 64;
      root_children = Hashtbl.create 16;
    }
  in
  let timer = ref 0 in
  let discover n =
    Hashtbl.replace st.disc n !timer;
    Hashtbl.replace st.low n !timer;
    incr timer
  in
  let visit root =
    if not (Hashtbl.mem st.disc root) then begin
      discover root;
      Hashtbl.replace st.root_children root 0;
      (* Frame: (node, edge id used to enter it, unprocessed neighbors). *)
      let stack = ref [ (root, -1, Graph.neighbors g root) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (n, in_edge, remaining) :: rest -> (
            match remaining with
            | [] ->
                stack := rest;
                (match rest with
                | (p, _, _) :: _ ->
                    let lown = Hashtbl.find st.low n in
                    if lown < Hashtbl.find st.low p then Hashtbl.replace st.low p lown
                | [] -> ())
            | (m, eid) :: tl -> (
                stack := (n, in_edge, tl) :: rest;
                match Hashtbl.find_opt st.disc m with
                | None ->
                    discover m;
                    Hashtbl.replace st.tree_parent m (n, eid);
                    if n = root then
                      Hashtbl.replace st.root_children root
                        (Hashtbl.find st.root_children root + 1);
                    stack := (m, eid, Graph.neighbors g m) :: !stack
                | Some dm ->
                    (* Back (or parallel) edge; ignore only the exact tree
                       edge we arrived by. *)
                    if eid <> in_edge && dm < Hashtbl.find st.low n then
                      Hashtbl.replace st.low n dm))
      done
    end
  in
  List.iter visit (Graph.nodes g);
  st

let bridges g =
  let st = compute_lowlink g in
  Hashtbl.fold
    (fun child (parent, eid) acc ->
      if Hashtbl.find st.low child > Hashtbl.find st.disc parent then begin
        (* A parallel edge between the same endpoints makes it not a
           bridge; the low-link test already accounts for this (the
           parallel edge acts as a back edge), so reaching here means no
           parallel edge exists. *)
        ignore parent;
        eid :: acc
      end
      else acc)
    st.tree_parent []
  |> List.sort Int.compare

let articulation_points g =
  let st = compute_lowlink g in
  let cut = Hashtbl.create 16 in
  Hashtbl.iter
    (fun child (parent, _) ->
      if
        (not (Hashtbl.mem st.root_children parent))
        && Hashtbl.find st.low child >= Hashtbl.find st.disc parent
      then Hashtbl.replace cut parent ())
    st.tree_parent;
  Hashtbl.iter
    (fun root children -> if children >= 2 then Hashtbl.replace cut root ())
    st.root_children;
  Hashtbl.fold (fun n () acc -> n :: acc) cut [] |> List.sort Int.compare

let k_core g ~k =
  if k < 0 then invalid_arg "Structure.k_core: negative k";
  let rec strip g =
    let victims =
      Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
          if Graph.degree g n < k then n :: acc else acc)
    in
    if victims = [] then g else strip (List.fold_left Graph.remove_node g victims)
  in
  strip g
