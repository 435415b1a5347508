(* Hash table + intrusive doubly-linked recency list.  [head] is the
   most recently used node, [tail] the eviction candidate.  [mu] guards
   every field but [cap]; the unlocked helpers below run under it. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cap : int;
  mu : Mutex.t;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    cap = capacity;
    mu = Mutex.create ();
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
  }

let capacity t = t.cap
let length t = Mutex.protect t.mu (fun () -> Hashtbl.length t.table)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.table key with
      | None -> None
      | Some n ->
          unlink t n;
          push_front t n;
          Some n.value)

let add t key value =
  if t.cap = 0 then None
  else
    Mutex.protect t.mu (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some n ->
            n.value <- value;
            unlink t n;
            push_front t n
        | None ->
            let n = { key; value; prev = None; next = None } in
            Hashtbl.replace t.table key n;
            push_front t n);
        if Hashtbl.length t.table > t.cap then (
          match t.tail with
          | None -> None
          | Some lru ->
              unlink t lru;
              Hashtbl.remove t.table lru.key;
              Some (lru.key, lru.value))
        else None)

let clear t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None)

let keys_newest_first t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  Mutex.protect t.mu (fun () -> go [] t.head)
