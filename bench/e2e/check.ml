(* Expected outputs, computed in-process through the same library entry
   points the binary serves, so any byte the serving or CLI path adds,
   drops or reorders counts as a failed operation. *)

open Server

let decode_simulate body =
  match Api.params_of_body ~base:Api.sim_defaults ~of_json:Api.sim_of_json body with
  | Ok p -> p
  | Error e -> failwith ("workload body does not decode: " ^ e)

let simulate body = Api.simulate_body (decode_simulate body)

let sweep_cells body =
  match
    Api.params_of_body ~base:[] ~of_json:(fun _ j -> Api.sweep_axes_of_json j) body
  with
  | Error e -> failwith ("sweep body does not decode: " ^ e)
  | Ok axes -> (
      match Stormsim.Sweep.expand axes with
      | Ok cells -> cells
      | Error e -> failwith ("sweep grid does not expand: " ^ e))

let cli_sweep_cells seed =
  let axes =
    List.map
      (fun spec ->
        match Stormsim.Sweep.axis_of_spec spec with
        | Ok a -> a
        | Error e -> failwith ("cli axis: " ^ e))
      (Workload.cli_sweep_axes seed)
  in
  match Stormsim.Sweep.expand axes with Ok cells -> cells | Error e -> failwith e

(* The JSONL stream [POST /sweep] and [solarstorm sweep] both emit. *)
let sweep_stream ?jobs cells =
  let buf = Buffer.create 65536 in
  ignore
    (Stormsim.Sweep.run ?jobs ~cells ()
       ~emit:(fun row -> Buffer.add_string buf (Stormsim.Sweep.row_line row)));
  Buffer.contents buf

let figures_ok stdout = Digest.to_hex (Digest.string stdout) = Workload.figures_digest

(* A cheap shape check for replies whose exact bytes are only checked on
   a sample (computing them costs as much as serving them). *)
let looks_like_simulate body =
  let prefix = {|{"endpoint":"simulate",|} in
  String.length body > String.length prefix
  && String.sub body 0 (String.length prefix) = prefix
  && body.[String.length body - 1] = '\n'

let exact expected (r : Client.response) = r.Client.status = 200 && String.equal r.Client.body expected

(* The serve-miss replies kept and compared byte-for-byte after the run:
   every 97th request.  The pool order is a seeded shuffle, so the
   sample is seeded too and spreads over all six models. *)
let sampled i = i mod 97 = 0
