(* api_scan — list the parts of the lib/ interfaces that no program uses.

     api_scan BUILD_DIR        e.g. api_scan _build/default

   Reads the typed trees that `dune build @check` leaves under BUILD_DIR
   (a .cmti for every lib/ interface, a .cmt for every implementation)
   and prints, one a line and sorted, every

     Module.value           exported value that no program code names,
     Module.value ?arg      optional argument that no program call supplies,
     Module.type.field      exported record field that no program code reads.

   Program code is code a program can run: every implementation under
   bin/, bench/ and examples/, the initialisation of each lib/ module,
   and every lib/ binding that those reach by name; tests are not
   callers, and neither is a lib/ function that only tests reach.  A
   value's own module is not its caller, but a field read inside its
   own module counts.  A nested signature (Rng.Raw) is its own module.
   A call that passes `?x` on from its own optional argument supplies
   `?x`, so a dead chain shows up one link per run.  A record type that re-exports another
   ([type t = M.t = {...}]) shares M.t's fields.  Names resolve through
   the compiler's unique ids, so aliases, opens and local modules neither
   hide nor fake a use.  bin/check.sh diffs this list against
   bin/api_test_only.txt. *)

open Typedtree

type entry = { line : string; mutable used : bool }

let entries = ref []

let entry line =
  let e = { line; used = false } in
  entries := e :: !entries;
  e

(* Keyed by the interface's unique ids.  The ids of one compilation
   restart at zero, so an implementation's ids can equal its interface's:
   a module's references to itself never look these tables up. *)
let values : (Shape.Uid.t, entry) Hashtbl.t = Hashtbl.create 1024
let args : (Shape.Uid.t * string, entry) Hashtbl.t = Hashtbl.create 256
let fields : (Shape.Uid.t, entry) Hashtbl.t = Hashtbl.create 512

(* Fields by line, for the labels of the same field declared again: in
   an implementation, or by a re-exporting type. *)
let field_lines : (string, entry) Hashtbl.t = Hashtbl.create 512

let mark tbl key = match Hashtbl.find_opt tbl key with Some e -> e.used <- true | None -> ()

(* Stormsim__Capacity -> Capacity; Rng -> Rng. *)
let module_name modname =
  let rec from i =
    if i < 1 then modname
    else if modname.[i] = '_' && modname.[i - 1] = '_' then
      String.sub modname (i + 1) (String.length modname - i - 1)
    else from (i - 1)
  in
  from (String.length modname - 1)

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

(* (field, uid) for each label of a record declaration. *)
let record_labels (td : type_declaration) =
  match td.typ_type.type_kind with
  | Types.Type_record (lds, _) ->
      List.map (fun (ld : Types.label_declaration) -> (Ident.name ld.ld_id, ld.ld_uid)) lds
  | _ -> []

let add_field line uid =
  let e = entry line in
  Hashtbl.replace fields uid e;
  Hashtbl.replace field_lines line e

(* Record types that re-export another, [(Module.type, re-exported path,
   labels)], resolved once every interface is read. *)
let reexports = ref []

(* A label of [type t = Lib.M.u = {...}] is the field M.u.f: the longest
   suffix of the path that names an exported field.  A type re-exported
   from outside lib/ keeps fields of its own. *)
let add_reexport (typ, path, labels) =
  List.iter
    (fun (field, uid) ->
      let rec original = function
        | [] -> None
        | _ :: rest as parts -> (
            match Hashtbl.find_opt field_lines (String.concat "." (parts @ [ field ])) with
            | Some e -> Some e
            | None -> original rest)
      in
      match original (String.split_on_char '.' (Path.name path)) with
      | Some e ->
          Hashtbl.replace fields uid e;
          Hashtbl.replace field_lines (typ ^ "." ^ field) e
      | None -> add_field (typ ^ "." ^ field) uid)
    labels

let rec export_signature prefix (sg : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let name = prefix ^ "." ^ vd.val_name.txt and uid = vd.val_val.val_uid in
          Hashtbl.replace values uid (entry name);
          List.iter
            (fun l -> Hashtbl.replace args (uid, l) (entry (name ^ " ?" ^ l)))
            (optional_labels vd.val_val.val_type)
      | Tsig_type (_, tds) ->
          List.iter
            (fun (td : type_declaration) ->
              let typ = prefix ^ "." ^ td.typ_name.txt and labels = record_labels td in
              match Option.map Types.get_desc td.typ_type.type_manifest with
              | Some (Types.Tconstr (path, _, _)) when labels <> [] ->
                  reexports := (typ, path, labels) :: !reexports
              | _ -> List.iter (fun (field, uid) -> add_field (typ ^ "." ^ field) uid) labels)
            tds
      | Tsig_module
          { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          export_signature (prefix ^ "." ^ m) sg
      | _ -> ())
    sg.sig_items

let rec structure_of (me : module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> Some str
  | Tmod_constraint (me, _, _, _) -> structure_of me
  | _ -> None

(* An implementation's own copy of its exported record types: maps the
   implementation's label ids onto the interface's entries. *)
let rec own_fields own prefix (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_type (_, tds) ->
          List.iter
            (fun (td : type_declaration) ->
              List.iter
                (fun (field, uid) ->
                  Option.iter (Hashtbl.replace own uid)
                    (Hashtbl.find_opt field_lines (prefix ^ "." ^ td.typ_name.txt ^ "." ^ field)))
                (record_labels td))
            tds
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } ->
          Option.iter (own_fields own (prefix ^ "." ^ m)) (structure_of mb_expr)
      | _ -> ())
    str.str_items

(* Reachability.  A use counts only in code a program can run: all of
   bin/, bench/ and examples/, a lib/ module's initialisation (a
   top-level binding that is not a function, and [let () =]) and every
   lib/ binding that those reach by name, calls within a module
   included.  A lib/ binding is a node; reaching it scans its body once. *)
type node = { mutable reached : bool; body : unit -> unit }

let pending = Queue.create ()

let reach n =
  if not n.reached then begin
    n.reached <- true;
    Queue.add n.body pending
  end

(* The bindings that other modules name: by interface id, or by
   implementation id for a module without an interface. *)
let exported : (Shape.Uid.t, node) Hashtbl.t = Hashtbl.create 1024

(* The iterator that marks what one implementation uses and reaches the
   bindings it names.  Its references to itself carry its own ids: the
   compiler's record of which implementation value meets which interface
   value maps a call of its own exported function onto that function's
   arguments, [own_labels] (filled by {!own_fields}) maps its label ids
   onto the interface's fields, and [own_nodes] holds its bindings. *)
let uses (cmt : Cmt_format.cmt_infos) own_labels own_nodes =
  let foreign (uid : Shape.Uid.t) =
    match uid with Item { comp_unit; _ } -> comp_unit <> cmt.cmt_modname | _ -> true
  in
  let own_values = Hashtbl.create 64 in
  List.iter
    (fun ((impl : Types.value_description), (intf : Types.value_description)) ->
      Hashtbl.replace own_values impl.val_uid intf.val_uid)
    cmt.cmt_value_dependencies;
  let read (lbl : Types.label_description) =
    if foreign lbl.lbl_uid then mark fields lbl.lbl_uid else mark own_labels lbl.lbl_uid
  in
  let name (vd : Types.value_description) =
    if foreign vd.val_uid then begin
      mark values vd.val_uid;
      Option.iter reach (Hashtbl.find_opt exported vd.val_uid)
    end
    else Option.iter reach (Hashtbl.find_opt own_nodes vd.val_uid)
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> name vd
    (* A binding operator names its definition here, not by an ident. *)
    | Texp_letop { let_; ands; _ } -> List.iter (fun b -> name b.bop_op_val) (let_ :: ands)
    | Texp_field (_, _, lbl) -> read lbl
    | _ -> ());
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, applied) ->
        let callee =
          if foreign vd.val_uid then Some vd.val_uid else Hashtbl.find_opt own_values vd.val_uid
        in
        (* The type checker fills an omitted optional argument with a
           [None] located nowhere. *)
        Option.iter
          (fun uid ->
            List.iter
              (function
                | Asttypes.Optional l, Some arg when arg.exp_loc <> Location.none ->
                    mark args (uid, l)
                | _ -> ())
              applied)
          callee
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let pat (type k) sub (p : k general_pattern) =
    (match p.pat_desc with
    | Tpat_record (labelled, _) -> List.iter (fun (_, lbl, _) -> read lbl) labelled
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  { Tast_iterator.default_iterator with expr; pat }

(* One node per top-level binding of a lib/ implementation, nested
   modules included, under the ids its binding declares; the ones that
   run at initialisation are reached now. *)
let add_nodes (cmt : Cmt_format.cmt_infos) own_nodes (it : Tast_iterator.iterator) str =
  let uid_at = Hashtbl.create 256 in
  Shape.Uid.Tbl.iter (fun uid loc -> Hashtbl.replace uid_at loc uid) cmt.cmt_uid_to_loc;
  let rec items (str : structure) =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let n = { reached = false; body = (fun () -> it.expr it vb.vb_expr) } in
                List.iter
                  (fun (_, (var : string Location.loc), _) ->
                    Option.iter
                      (fun uid -> Hashtbl.replace own_nodes uid n)
                      (Hashtbl.find_opt uid_at var.loc))
                  (let_bound_idents_full [ vb ]);
                match vb.vb_expr.exp_desc with Texp_function _ -> () | _ -> reach n)
              vbs
        | Tstr_eval (e, _) -> reach { reached = false; body = (fun () -> it.expr it e) }
        | Tstr_module { mb_expr; _ } -> Option.iter items (structure_of mb_expr)
        | _ -> ())
      str.str_items
  in
  items str

let rec typed_trees dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then typed_trees path acc
      else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti" then
        path :: acc
      else acc)
    acc (Sys.readdir dir)

let () =
  let build_dir =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
        prerr_endline "usage: api_scan BUILD_DIR";
        exit 2
  in
  let trees =
    List.concat_map
      (fun d ->
        let dir = Filename.concat build_dir d in
        if Sys.file_exists dir then typed_trees dir [] else [])
      [ "lib"; "bin"; "bench"; "examples" ]
    |> List.sort compare |> List.map Cmt_format.read_cmt
  in
  let in_lib (cmt : Cmt_format.cmt_infos) =
    match cmt.cmt_sourcefile with Some src -> String.starts_with ~prefix:"lib/" src | None -> false
  in
  List.iter
    (fun (cmt : Cmt_format.cmt_infos) ->
      match cmt.cmt_annots with
      | Interface sg when in_lib cmt -> export_signature (module_name cmt.cmt_modname) sg
      | _ -> ())
    trees;
  List.iter add_reexport !reexports;
  let interfaces =
    List.filter_map
      (fun (cmt : Cmt_format.cmt_infos) ->
        match cmt.cmt_annots with Interface _ -> Some cmt.cmt_modname | _ -> None)
      trees
  in
  List.iter
    (fun (cmt : Cmt_format.cmt_infos) ->
      match cmt.cmt_annots with
      | Implementation str ->
          let own_labels = Hashtbl.create 16 and own_nodes = Hashtbl.create 64 in
          let it = uses cmt own_labels own_nodes in
          if not (in_lib cmt) then reach { reached = false; body = (fun () -> it.structure it str) }
          else begin
            own_fields own_labels (module_name cmt.cmt_modname) str;
            add_nodes cmt own_nodes it str;
            if List.mem cmt.cmt_modname interfaces then
              List.iter
                (fun ((impl : Types.value_description), (intf : Types.value_description)) ->
                  Option.iter (Hashtbl.replace exported intf.val_uid)
                    (Hashtbl.find_opt own_nodes impl.val_uid))
                cmt.cmt_value_dependencies
            else Hashtbl.iter (Hashtbl.replace exported) own_nodes
          end
      | _ -> ())
    trees;
  while not (Queue.is_empty pending) do
    (Queue.pop pending) ()
  done;
  List.filter_map (fun e -> if e.used then None else Some e.line) !entries
  |> List.sort_uniq compare |> List.iter print_endline
