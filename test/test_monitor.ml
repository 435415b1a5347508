(* Pinned /varz, /alertz and /dashboard bodies over one manual-clock
   monitor.

   /varz and /dashboard list every metric in the process registry, so
   their bytes depend on which metrics exist.  This suite is its own
   executable with this one test: no other test can register a metric
   or boot a worker pool before it, and the registry holds exactly what
   module initialisation registers plus the three [win.*] metrics
   below.

   The MD5s pin the response bytes: a change to {!Server.Monitor.window},
   the /varz encoder or the /dashboard renderer must keep them.  The
   ring has 8 slots for 15 samples, so the 60 s scrapes read a wrapped
   ring shorter than their window. *)

let request target =
  { Server.Http.meth = Server.Http.GET; target; version = "HTTP/1.1"; headers = []; body = "" }

let rule src =
  match Obs.Alerts.parse_rule src with Ok r -> r | Error e -> Alcotest.fail e

let second = 1_000_000_000L

let test_pinned_bodies () =
  Obs.reset ();
  Obs.enable ();
  let clock, advance = Obs.Clock.manual ~start:(Int64.mul 5L second) () in
  let m =
    Server.Monitor.create ~clock ~step_s:1.0 ~retention:8
      ~rules:
        [ rule "win.requests:rate<3:4s"; rule "win.ms:p99<20:4s"; rule "win.depth:value<3:4s" ]
      ()
  in
  let requests = Obs.Metrics.counter "win.requests" in
  let ms = Obs.Metrics.histogram "win.ms" ~buckets:[| 1.0; 5.0; 25.0; 100.0 |] in
  let depth = Obs.Metrics.gauge "win.depth" in
  Server.Monitor.sample_now m;
  for step = 1 to 10 do
    Obs.Metrics.add requests (step * step mod 7);
    for i = 1 to step mod 4 do
      Obs.Metrics.observe ms (float_of_int (i * step * 3))
    done;
    Obs.Metrics.set depth (float_of_int (step mod 5));
    advance second;
    Server.Monitor.sample_now m
  done;
  (* Off for the scrapes: the GC gauges stay at zero. *)
  Obs.disable ();
  let routes = Server.Handlers.monitor_routes m in
  List.iter
    (fun (target, md5) ->
      advance second;
      let resp = Server.Router.to_response (Server.Router.dispatch ~routes (request target)) in
      Alcotest.(check int) (target ^ " status") 200 resp.Server.Http.status;
      Alcotest.(check string) (target ^ " body") md5
        (Digest.to_hex (Digest.string resp.Server.Http.body)))
    [
      ("/varz?window=4s", "4e69ed69dff767369857a813f4016a4b");
      ("/alertz", "5c22358e07f47637682c78bdb671ceaf");
      ("/dashboard?window=4s", "179e91aa81e10ad018b87fc161d18814");
      ("/varz", "198bfb67264a2a86e99881db8697430e");
      ("/dashboard", "b19464dc473a1c1a31dad497028a2ff4");
    ];
  Obs.reset ()

let () =
  Alcotest.run "monitor"
    [ ("windowed query", [ Alcotest.test_case "pinned bodies" `Quick test_pinned_bodies ]) ]
