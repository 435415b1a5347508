(* Hash table + intrusive doubly-linked recency list.  [head] is the
   most recently used node, [tail] the eviction candidate. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  cap : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  { cap = capacity; table = Hashtbl.create (max 16 capacity); head = None; tail = None }

let capacity t = t.cap
let length t = Hashtbl.length t.table

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
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let add t key value =
  if t.cap = 0 then None
  else begin
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
    else None
  end

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None

let keys_newest_first t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head

(* Lock-striped sharding: each shard is an independent (mutex, plain
   LRU) pair and a key always hashes to the same shard, so two domains
   only contend when they touch keys of the same stripe.  Recency (and
   therefore eviction) is per shard — with the canonical-request keys
   well spread by [Hashtbl.hash] this approximates global LRU while
   keeping the critical section one stripe wide. *)
module Sharded = struct
  type 'a shard = { mu : Mutex.t; lru : 'a t }
  type nonrec 'a t = { shards : 'a shard array; total : int }

  (* Enough stripes that a handful of worker domains rarely collide, few
     enough that tiny caches are not all remainder. *)
  let default_shards = 8

  let create ?(shards = default_shards) ~capacity () =
    if capacity < 0 then invalid_arg "Lru.Sharded.create: negative capacity";
    if shards <= 0 then invalid_arg "Lru.Sharded.create: shards <= 0";
    (* Never more shards than entries (an empty stripe is pure waste),
       and per-shard caps that sum exactly to [capacity] so the global
       bound stays exact: the first [capacity mod n] stripes take the
       remainder. *)
    let n = Int.min shards (Int.max 1 capacity) in
    let per i = (capacity / n) + if i < capacity mod n then 1 else 0 in
    {
      shards =
        Array.init n (fun i ->
            { mu = Mutex.create (); lru = create ~capacity:(per i) });
      total = capacity;
    }

  let capacity t = t.total
  let shard_count t = Array.length t.shards

  let locked s f =
    Mutex.lock s.mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.mu) (fun () -> f s.lru)

  let shard_of t key = t.shards.(Hashtbl.hash key mod Array.length t.shards)
  let find t key = locked (shard_of t key) (fun l -> find l key)
  let add t key value = locked (shard_of t key) (fun l -> add l key value)
  let length t = Array.fold_left (fun acc s -> acc + locked s length) 0 t.shards
  let clear t = Array.iter (fun s -> locked s clear) t.shards

  let keys_newest_first t =
    List.concat_map
      (fun s -> locked s keys_newest_first)
      (Array.to_list t.shards)
end
