(* Compiled against OCaml 5.1's compiler-libs, which CI pins: OCaml 5.2
   changed the argument type of [Texp_apply], so a newer compiler needs
   [expr] below ported. *)

open Typedtree

let rec files ext dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | names ->
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then files ext path acc
          else if Filename.check_suffix name ext then path :: acc
          else acc)
        acc names

let unit_of_uid = function
  | Shape.Uid.Item { comp_unit; _ } -> Some comp_unit
  | _ -> None

(* A [val] of an interface, with the optional labels of its type. *)
type export = {
  file : string;
  unit : string;
  key : string; (* "Engine.every", "Datasets.Abilene.seattle" *)
  uid : Shape.Uid.t;
  labels : string list;
}

let label_key e l = e.key ^ " ?" ^ l

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optional_labels rest
  | Tarrow (_, _, rest, _) -> optional_labels rest
  | _ -> []

let rec sig_exports ~file ~unit prefix items acc =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let v = vd.val_val in
          { file; unit; key = prefix ^ vd.val_name.txt; uid = v.val_uid;
            labels = optional_labels v.val_type }
          :: acc
      | Tsig_module
          { md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          sig_exports ~file ~unit (prefix ^ m ^ ".") s.sig_items acc
      | _ -> acc)
    acc items

let exports root =
  List.concat_map
    (fun path ->
      let cmt = Cmt_format.read_cmt path in
      match cmt.cmt_annots with
      | Interface s ->
          let file = Option.value cmt.cmt_sourcefile ~default:path in
          let name = Filename.(remove_extension (basename file)) in
          List.rev
            (sig_exports ~file ~unit:cmt.cmt_modname
               (String.capitalize_ascii name ^ ".")
               s.sig_items [])
      | _ -> [])
    (List.sort compare (files ".cmti" (Filename.concat root "lib") []))

(* What one implementation uses of other units: the uids its identifiers
   name, the (uid, label) pairs its calls pass, and the units it hands
   over whole (functor argument, include, first-class module). *)
type uses = {
  values : (Shape.Uid.t, unit) Hashtbl.t;
  passed : (Shape.Uid.t * string, unit) Hashtbl.t;
  whole : (string, unit) Hashtbl.t;
}

let unit_of_module me =
  let rec path me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some p
    | Tmod_constraint (me, _, _, _) -> path me
    | _ -> None
  in
  match Option.map Path.flatten (path me) with
  | Some (`Ok (id, names)) -> Some (String.concat "__" (Ident.name id :: names))
  | _ -> None

let scan uses (cmt : Cmt_format.cmt_infos) =
  let self = cmt.cmt_modname in
  (* A call inside the unit names the .ml's value; the interface's value
     is the one the compiler matched it with. *)
  let declared = Hashtbl.create 64 in
  List.iter
    (fun ((impl : Types.value_description), (intf : Types.value_description)) ->
      Hashtbl.replace declared impl.val_uid intf.val_uid)
    cmt.cmt_value_dependencies;
  let hand_over me =
    Option.iter (fun u -> Hashtbl.replace uses.whole u ()) (unit_of_module me)
  in
  let expr sub e =
    (match e.exp_desc with
     | Texp_ident (_, _, vd) when unit_of_uid vd.val_uid <> Some self ->
         Hashtbl.replace uses.values vd.val_uid ()
     | Texp_pack me -> hand_over me
     | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
         let uid =
           if unit_of_uid vd.val_uid = Some self then
             Hashtbl.find_opt declared vd.val_uid
           else Some vd.val_uid
         in
         (* An omitted optional argument is a ghost [None] at
            [Location.none]; a passed one has the caller's location. *)
         Option.iter
           (fun uid ->
             List.iter
               (function
                 | Asttypes.Optional l, Some arg when arg.exp_loc <> Location.none ->
                     Hashtbl.replace uses.passed (uid, l) ()
                 | _ -> ())
               args)
           uid
     | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let module_expr sub me =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> hand_over arg | _ -> ());
    Tast_iterator.default_iterator.module_expr sub me
  in
  let structure_item sub item =
    (match item.str_desc with Tstr_include i -> hand_over i.incl_mod | _ -> ());
    Tast_iterator.default_iterator.structure_item sub item
  in
  let it =
    { Tast_iterator.default_iterator with expr; module_expr; structure_item }
  in
  match cmt.cmt_annots with Implementation s -> it.structure it s | _ -> ()

let callers = [ "lib"; "bin"; "bench"; "test"; "examples"; "e2ebench" ]

let check ~kept root =
  let exports = exports root in
  let uses =
    { values = Hashtbl.create 4096; passed = Hashtbl.create 256;
      whole = Hashtbl.create 16 }
  in
  List.iter
    (fun dir ->
      List.iter
        (fun path -> scan uses (Cmt_format.read_cmt path))
        (files ".cmt" (Filename.concat root dir) []))
    callers;
  let unused =
    List.concat_map
      (fun e ->
        if Hashtbl.mem uses.whole e.unit then []
        else
          (if Hashtbl.mem uses.values e.uid then [] else [ (e, e.key) ])
          @ List.filter_map
              (fun l ->
                if Hashtbl.mem uses.passed (e.uid, l) then None
                else Some (e, label_key e l))
              e.labels)
      exports
  in
  let findings =
    List.filter_map
      (fun (e, key) ->
        if List.mem_assoc key kept then None
        else Some (Printf.sprintf "%s: %s has no caller" e.file key))
      unused
  in
  let stale =
    List.filter_map
      (fun (key, _) ->
        if List.exists (fun (_, k) -> k = key) unused then None
        else if
          List.exists
            (fun e -> e.key = key || List.exists (fun l -> label_key e l = key) e.labels)
            exports
        then Some (Printf.sprintf "KEPT: %s has a caller; drop its entry" key)
        else Some (Printf.sprintf "KEPT: %s names no lib/ interface item" key))
      kept
  in
  findings @ stale
