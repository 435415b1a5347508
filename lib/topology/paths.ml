(* Binary heap keyed by float priority, grow-able array implementation. *)
module Heap = struct
  type 'a t = { mutable data : (float * 'a) array; mutable size : int }

  let create () = { data = Array.make 64 (0.0, Obj.magic 0); size = 0 }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h prio v =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) h.data.(0) in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- (prio, v);
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

let shortest_path g ~weight src dst =
  if not (Graph.mem_node g src && Graph.mem_node g dst) then None
  else begin
    (* Dijkstra with parent tracking. *)
    let dist = Hashtbl.create 64 and parent = Hashtbl.create 64 in
    let heap = Heap.create () in
    let finalized = Hashtbl.create 64 in
    Hashtbl.replace dist src 0.0;
    Heap.push heap 0.0 src;
    let rec loop () =
      match Heap.pop heap with
      | None -> ()
      | Some (_, n) when Hashtbl.mem finalized n -> loop ()
      | Some (d, n) ->
          Hashtbl.replace finalized n ();
          if n <> dst then begin
            List.iter
              (fun (m, eid) ->
                let w = weight eid in
                if w < 0.0 then invalid_arg "Paths.shortest_path: negative weight";
                let nd = d +. w in
                match Hashtbl.find_opt dist m with
                | Some old when old <= nd -> ()
                | _ ->
                    Hashtbl.replace dist m nd;
                    Hashtbl.replace parent m n;
                    Heap.push heap nd m)
              (Graph.neighbors g n);
            loop ()
          end
    in
    loop ();
    match Hashtbl.find_opt dist dst with
    | None -> None
    | Some d ->
        let rec build acc n =
          if n = src then src :: acc
          else
            match Hashtbl.find_opt parent n with
            | None -> acc
            | Some p -> build (n :: acc) p
        in
        Some (d, build [] dst)
  end
