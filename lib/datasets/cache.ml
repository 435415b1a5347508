let builds = ref 0

(* Single flight per key: one mutex guards the tables, and a key being
   built holds [Building].  The first caller for a key marks it and
   builds outside the lock; later callers for that key wait on [built]
   and get the one physical value, so concurrent server workers never
   build a dataset twice.  Callers for other keys look up and build
   meanwhile, so a sweep can build its grid's networks on several
   domains at once.  A build that raises unmarks its key and wakes the
   waiters, and the next caller builds again. *)
type 'v slot = Building | Ready of 'v

let mu = Mutex.create ()
let built = Condition.create ()

let memo tbl key build =
  Mutex.lock mu;
  let rec await () =
    match Hashtbl.find_opt tbl key with
    | Some (Ready v) ->
        Mutex.unlock mu;
        v
    | Some Building ->
        Condition.wait built mu;
        await ()
    | None -> (
        Hashtbl.replace tbl key Building;
        incr builds;
        Mutex.unlock mu;
        let settle slot =
          Mutex.lock mu;
          (match slot with
          | Some v -> Hashtbl.replace tbl key (Ready v)
          | None -> Hashtbl.remove tbl key);
          Condition.broadcast built;
          Mutex.unlock mu
        in
        match build () with
        | v ->
            settle (Some v);
            v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            settle None;
            Printexc.raise_with_backtrace e bt)
  in
  await ()

let submarine_tbl : (int, Infra.Network.t slot) Hashtbl.t = Hashtbl.create 4
let intertubes_tbl : (int, Infra.Network.t slot) Hashtbl.t = Hashtbl.create 4
let itu_tbl : (int * float, Infra.Network.t slot) Hashtbl.t = Hashtbl.create 4
let caida_tbl : (int * int, Caida.asys array slot) Hashtbl.t = Hashtbl.create 4
let dns_tbl : (int, Dns_roots.instance array slot) Hashtbl.t = Hashtbl.create 4
let ixp_tbl : (int, Ixp.t array slot) Hashtbl.t = Hashtbl.create 4

(* Defaults mirror the builders' own, so [Cache.submarine ()] and
   [Submarine.build ()] describe the same dataset. *)

let submarine ?(seed = 42) () =
  memo submarine_tbl seed (fun () -> Submarine.build ~seed ())

let intertubes ?(seed = 42) () =
  memo intertubes_tbl seed (fun () -> Intertubes.build ~seed ())

let itu ?(seed = 42) ?(scale = 1.0) () =
  memo itu_tbl (seed, scale) (fun () -> Itu.build ~seed ~scale ())

let caida ?(seed = 42) ?(ases = Caida.target_ases) () =
  memo caida_tbl (seed, ases) (fun () -> Caida.build ~seed ~ases ())

let dns_roots ?(seed = 42) () =
  memo dns_tbl seed (fun () -> Dns_roots.build ~seed ())

let ixp ?(seed = 42) () = memo ixp_tbl seed (fun () -> Ixp.build ~seed ())

let build_count () =
  Mutex.lock mu;
  let n = !builds in
  Mutex.unlock mu;
  n

let clear () =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) @@ fun () ->
  builds := 0;
  Hashtbl.reset submarine_tbl;
  Hashtbl.reset intertubes_tbl;
  Hashtbl.reset itu_tbl;
  Hashtbl.reset caida_tbl;
  Hashtbl.reset dns_tbl;
  Hashtbl.reset ixp_tbl
