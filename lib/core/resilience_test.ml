type service = {
  name : string;
  replicas : string list;
  write_quorum : int;
  read_quorum : int;
}

let sample_services =
  [
    { name = "us-east-triple"; replicas = [ "New York"; "Virginia Beach"; "Boston" ];
      write_quorum = 2; read_quorum = 1 };
    { name = "anycast-cdn";
      replicas = [ "New York"; "Marseille"; "Singapore"; "Sao Paulo"; "Sydney"; "Mombasa" ];
      write_quorum = 1; read_quorum = 1 };
    { name = "global-majority-db";
      replicas = [ "New York"; "London"; "Singapore"; "Sao Paulo"; "Sydney" ];
      write_quorum = 3; read_quorum = 1 };
    { name = "europe-pair"; replicas = [ "London"; "Amsterdam" ];
      write_quorum = 2; read_quorum = 1 };
  ]

type availability = {
  service : service;
  read_pct : float;
  write_pct : float;
  reachable_replicas_mean : float;
}

let nearest_node network city =
  let pos = (Datasets.Cities.find city).Datasets.Cities.pos in
  let best = ref 0 and best_d = ref Float.infinity in
  for i = 0 to Infra.Network.nb_nodes network - 1 do
    let d = Geo.Distance.haversine_km pos (Infra.Network.node_coord network i) in
    if d < !best_d then begin
      best := i;
      best_d := d
    end
  done;
  !best

let evaluate ~network service =
  let n_replicas = List.length service.replicas in
  if service.write_quorum <= 0 || service.write_quorum > n_replicas then
    invalid_arg "Resilience_test.evaluate: bad write quorum";
  if service.read_quorum <= 0 || service.read_quorum > n_replicas then
    invalid_arg "Resilience_test.evaluate: bad read quorum";
  let parts = Mitigation.predicted_partitions ~survival_cutoff:0.5 ~network () in
  let replica_nodes = List.map (nearest_node network) service.replicas in
  (* Partition id per node. *)
  let part_of = Hashtbl.create 1024 in
  List.iteri (fun pid nodes -> List.iter (fun n -> Hashtbl.replace part_of n pid) nodes) parts;
  (* Replicas per partition. *)
  let replicas_in = Hashtbl.create 16 in
  List.iter
    (fun rn ->
      match Hashtbl.find_opt part_of rn with
      | Some pid ->
          Hashtbl.replace replicas_in pid
            (1 + Option.value ~default:0 (Hashtbl.find_opt replicas_in pid))
      | None -> ())
    replica_nodes;
  let total = ref 0 and reads = ref 0 and writes = ref 0 and reach = ref 0 in
  Hashtbl.iter
    (fun _node pid ->
      incr total;
      let r = Option.value ~default:0 (Hashtbl.find_opt replicas_in pid) in
      reach := !reach + r;
      if r >= service.read_quorum then incr reads;
      if r >= service.write_quorum then incr writes)
    part_of;
  let pct x = if !total = 0 then 0.0 else 100.0 *. float_of_int x /. float_of_int !total in
  {
    service;
    read_pct = pct !reads;
    write_pct = pct !writes;
    reachable_replicas_mean =
      (if !total = 0 then 0.0 else float_of_int !reach /. float_of_int !total);
  }

let run_suite ~network () = List.map (evaluate ~network) sample_services

let placement_gain ~network ~before ~after =
  let a = evaluate ~network after and b = evaluate ~network before in
  a.write_pct -. b.write_pct
