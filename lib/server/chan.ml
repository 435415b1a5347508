(* Mutex + condition over a Queue: the service moves a handful of jobs
   per request, so a lock-free design would buy nothing. *)

type 'a t = { mu : Mutex.t; nonempty : Condition.t; q : 'a Queue.t }

let create () = { mu = Mutex.create (); nonempty = Condition.create (); q = Queue.create () }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let push t v =
  locked t @@ fun () ->
  Queue.push v t.q;
  Condition.signal t.nonempty

let pop t =
  locked t @@ fun () ->
  while Queue.is_empty t.q do
    Condition.wait t.nonempty t.mu
  done;
  Queue.pop t.q

let try_pop t = locked t @@ fun () -> Queue.take_opt t.q
let length t = locked t @@ fun () -> Queue.length t.q
