let all_alive (t : As_topology.t) = Array.make t.As_topology.n true

(* Phase-layered BFS over states [phase * n + x].  Phases: 0 = ascending
   (may still go up), 1 = just crossed the one allowed peer link, 2 =
   descending.  Transitions from (x, 0): provider (0), peer (1), customer
   (2); from (x, 1): customer (2); from (x, 2): customer (2). *)

(* Working arrays reused by every search on a domain, so a search
   allocates nothing per state.  A state is marked in the current search
   iff its stamp equals [epoch], and bumping the epoch clears every mark
   at once.  Each state is enqueued at most once per search, so a flat
   array of 3n slots is the FIFO.  The arrays grow to 3n of the largest
   topology the domain has searched; each domain has its own, made on its
   first search. *)
type workspace = {
  mutable epoch : int;
  mutable stamp : int array;
  mutable parent : int array;
  mutable queue : int array;
}

let workspace_key =
  Domain.DLS.new_key (fun () -> { epoch = 0; stamp = [||]; parent = [||]; queue = [||] })

let fresh_workspace states =
  let w = Domain.DLS.get workspace_key in
  if Array.length w.stamp < states then begin
    w.stamp <- Array.make states 0;
    w.parent <- Array.make states (-1);
    w.queue <- Array.make states 0;
    w.epoch <- 0
  end;
  w.epoch <- w.epoch + 1;
  w

(* Search from [src] in FIFO order, stopping as soon as a newly marked
   state satisfies [until].  The marks and parents it leaves in the
   workspace are valid until the domain's next search. *)
let phase_bfs (t : As_topology.t) ~alive ~src ~until =
  let n = t.As_topology.n in
  let w = fresh_workspace (3 * n) in
  let epoch = w.epoch and stamp = w.stamp and parent = w.parent and queue = w.queue in
  let tail = ref 0 and found = ref false in
  let mark s from =
    stamp.(s) <- epoch;
    parent.(s) <- from;
    queue.(!tail) <- s;
    incr tail;
    if until s then found := true
  in
  let rec visit base from = function
    | [] -> ()
    | y :: rest ->
        if alive.(y) && stamp.(base + y) <> epoch then mark (base + y) from;
        visit base from rest
  in
  if alive.(src) then mark src (-1);
  let head = ref 0 in
  while !head < !tail && not !found do
    let s = queue.(!head) in
    incr head;
    if s < n then begin
      visit 0 s t.As_topology.providers.(s);
      visit n s t.As_topology.peers.(s);
      visit (2 * n) s t.As_topology.customers.(s)
    end
    else visit (2 * n) s t.As_topology.customers.(s mod n)
  done;
  w

let marked w s = w.stamp.(s) = w.epoch

let reach_state (t : As_topology.t) w dst =
  let n = t.As_topology.n in
  let rec find phase =
    if phase > 2 then None
    else if marked w ((phase * n) + dst) then Some phase
    else find (phase + 1)
  in
  find 0

let reachable t ~alive ~src ~dst =
  if not (alive.(src) && alive.(dst)) then false
  else if src = dst then true
  else
    let n = t.As_topology.n in
    let w = phase_bfs t ~alive ~src ~until:(fun s -> s mod n = dst) in
    reach_state t w dst <> None

let reachability_fraction t ~alive ~dst =
  if not alive.(dst) then 0.0
  else begin
    (* Valley-free reachability is symmetric: reversing up*(peer)?down*
       yields the same shape (each up edge reverses to a down edge).  So
       "who can reach dst" equals "whom dst can reach", and one forward
       BFS from dst suffices. *)
    let w = phase_bfs t ~alive ~src:dst ~until:(fun _ -> false) in
    let n = t.As_topology.n in
    let total = ref 0 and ok = ref 0 in
    for x = 0 to n - 1 do
      if alive.(x) && x <> dst then begin
        incr total;
        if marked w x || marked w (n + x) || marked w ((2 * n) + x) then incr ok
      end
    done;
    if !total = 0 then 0.0 else float_of_int !ok /. float_of_int !total
  end

let shortest_path t ~alive ~src ~dst =
  if not (alive.(src) && alive.(dst)) then None
  else if src = dst then Some [ src ]
  else begin
    let n = t.As_topology.n in
    (* [reach_state] prefers phase 0, so a phase-0 hit is final; a hit in
       a later phase may still be beaten by a phase-0 one found later. *)
    let w = phase_bfs t ~alive ~src ~until:(fun s -> s = dst) in
    match reach_state t w dst with
    | None -> None
    | Some phase ->
        let rec build acc state =
          let x = state mod n in
          let p = w.parent.(state) in
          if p = -1 then x :: acc else build (x :: acc) p
        in
        Some (build [] ((phase * n) + dst))
  end

let disjoint_paths ?(k = 3) t ~alive ~src ~dst =
  let alive = Array.copy alive in
  let rec collect acc remaining =
    if remaining = 0 then List.rev acc
    else
      match shortest_path t ~alive ~src ~dst with
      | None -> List.rev acc
      | Some path ->
          List.iter (fun x -> if x <> src && x <> dst then alive.(x) <- false) path;
          collect (path :: acc) (remaining - 1)
  in
  collect [] k

let is_valley_free (t : As_topology.t) path =
  let rel a b =
    if List.mem b t.As_topology.providers.(a) then `Up
    else if List.mem b t.As_topology.customers.(a) then `Down
    else if List.mem b t.As_topology.peers.(a) then `Peer
    else `None
  in
  let rec walk phase = function
    | a :: (b :: _ as rest) -> (
        match (rel a b, phase) with
        | `Up, `Ascending -> walk `Ascending rest
        | `Peer, `Ascending -> walk `Descending rest
        | `Down, (`Ascending | `Descending) -> walk `Descending rest
        | (`Up | `Peer), `Descending -> false
        | `None, _ -> false)
    | [ _ ] | [] -> true
  in
  walk `Ascending path
