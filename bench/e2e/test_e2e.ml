(* Properties of the end-to-end benchmark's generated workloads and of
   its failure accounting.  Pure or loopback-only, so `dune runtest`
   pays well under two seconds for them. *)

open E2e
module Api = Server.Api

let same_seed_same_bytes () =
  let gen seed =
    ( Workload.hit_bodies seed,
      Workload.miss_bodies seed,
      Workload.sweep_bodies seed,
      Workload.cli_sweep_args seed )
  in
  Alcotest.(check bool) "seed 7 twice" true (gen 7 = gen 7);
  Alcotest.(check bool) "seeds 7 and 8 differ" false (gen 7 = gen 8)

let miss_keys_distinct () =
  let pool = Workload.miss_bodies 3 in
  let keys = Hashtbl.create (Array.length pool) in
  Array.iter (fun b -> Hashtbl.replace keys (Api.sim_key (Check.decode_simulate b)) ()) pool;
  Alcotest.(check int) "pool size" (6 * 1001) (Array.length pool);
  Alcotest.(check int) "distinct keys" (Array.length pool) (Hashtbl.length keys)

(* Through the server's own cache: after one pass over the hit set, a
   second pass never computes. *)
let hit_set_fits_cache () =
  for seed = 1 to 20 do
    Api.set_cache_capacity Workload.cache_entries;
    let keys = Array.map (fun b -> Api.sim_key (Check.decode_simulate b)) (Workload.hit_bodies seed) in
    Array.iter (fun key -> ignore (Api.with_cache ~key (fun () -> Ok key))) keys;
    Alcotest.(check int) "all kept" 32 (Api.cache_length ());
    Array.iter
      (fun key ->
        Alcotest.(check bool) "hit" true
          (Api.with_cache ~key (fun () -> Error "recomputed") = Ok key))
      keys
  done;
  Api.reset ()

let sweep_grid_shape () =
  let grids = Workload.sweep_grids 9 in
  Alcotest.(check (list int)) "trials" (List.init 15 (fun i -> 15 + (5 * i)))
    (List.sort compare (Array.to_list (Array.map fst grids)));
  Array.iter
    (fun (_, body) ->
      let cells = Check.sweep_cells body in
      let distinct f =
        List.length (List.sort_uniq compare (Array.to_list (Array.map f cells)))
      in
      Alcotest.(check int) "cells" 256 (Array.length cells);
      Alcotest.(check int) "plans" 4 (distinct Stormsim.Sweep.plan_key);
      Alcotest.(check int) "batches" 4 (distinct Stormsim.Sweep.batch_key))
    grids

(* A loopback peer answering every request with [reply]. *)
let with_fake_server reply f =
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port = match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let peer =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept ~cloexec:true lsock in
        let buf = Bytes.create 4096 in
        let rec loop () =
          if Unix.read fd buf 0 4096 > 0 then begin
            ignore (Unix.write_substring fd reply 0 (String.length reply));
            loop ()
          end
        in
        loop ();
        Unix.close fd)
  in
  let result = f port in
  Domain.join peer;
  Unix.close lsock;
  result

let five_requests port ~judge =
  let sent = ref 0 in
  let next () =
    if !sent < 5 then begin
      incr sent;
      Some (!sent, Workload.get "/")
    end
    else None
  in
  let r =
    Client.closed_loop ~port ~conns:1 ~warmup_s:0.0 ~seconds:10.0 ~next ~judge
      ~keep:(fun _ -> false)
  in
  (r.Client.ok, r.Client.failed)

let corrupted_reply_fails () =
  let judge _ = Check.exact "hello\n" in
  let reply body =
    Printf.sprintf "HTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\n%s" (String.length body) body
  in
  Alcotest.(check (pair int int)) "intact" (5, 0)
    (with_fake_server (reply "hello\n") (five_requests ~judge));
  Alcotest.(check (pair int int)) "one byte flipped" (0, 5)
    (with_fake_server (reply "hellp\n") (five_requests ~judge))

let () =
  Alcotest.run "e2e"
    [
      ( "workloads",
        [
          Alcotest.test_case "same seed, same request bytes" `Quick same_seed_same_bytes;
          Alcotest.test_case "serve-miss keys pairwise distinct" `Quick miss_keys_distinct;
          Alcotest.test_case "serve-hit set fits the cache" `Quick hit_set_fits_cache;
          Alcotest.test_case "sweep grid: 256 cells, 4 plans" `Quick sweep_grid_shape;
        ] );
      ("checks", [ Alcotest.test_case "corrupted reply is a failure" `Quick corrupted_reply_fails ]);
    ]
