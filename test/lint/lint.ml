(* Surface lint over the typed tree.

   Reads the .cmti of every library interface and the .cmt of every
   implementation, and fails on
   - an exported library value that no other module references;
   - an optional argument of an exported function, of a function-typed
     field of an exported record, or of an exported function type, that no
     call site passes.
   A value or option whose only users are tests fails too, unless the
   allowlist names it with a reason; an allowlist entry that names
   anything else is reported as stale.

   Usage (from the build root, where dune's recorded include directories
   resolve): lint.exe [-allow FILE] KIND:DIR ...
   Every .cmt/.cmti in dune's object directories under DIR is read.
   KIND is [lib] (its interfaces are checked and its references count),
   [use] (references count) or [test] (references count as test-only).

   A call inside the defining module counts as passing an option, but not
   as a caller of the export. A call that only forwards a top-level
   function's own optional parameter ([let f ?x () = g ?x ()]) passes the
   option only where [f]'s is passed; forwarding from a local closure
   counts as passing it.

   Paths are keyed in full after alias expansion in each expression's own
   environment ([Env.normalize_value_path]), so [module M = Machine.Memory]
   resolves to [Machine__Memory] and [Machine.Exec] never meets
   [Dopc.Exec]. Findings print one a line; exit 1 if there are any. *)

open Typedtree

type kind = Lib | Use | Test

let kind_of = function
  | "lib" -> Lib
  | "use" -> Use
  | "test" -> Test
  | k -> raise (Arg.Bad ("unknown kind " ^ k))

(* [Machine__Exec.run] prints as [Machine.Exec.run]. *)
let display key =
  let b = Buffer.create (String.length key) in
  let n = String.length key in
  let rec go i =
    if i < n then
      if i + 1 < n && key.[i] = '_' && key.[i + 1] = '_' then (
        Buffer.add_char b '.';
        go (i + 2))
      else (
        Buffer.add_char b key.[i];
        go (i + 1))
  in
  go 0;
  Buffer.contents b

(* The .cmt/.cmti files of dune's object directories ([.x.objs/byte],
   [.x.eobjs/byte]) under [dir].  Tests that run next to the lint create
   and delete files under their own [_build], which is skipped, and an
   entry that vanishes mid-walk is ignored. *)
let rec files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names |> List.sort compare
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if n = "_build" then []
             else if try Sys.is_directory p with Sys_error _ -> false then files p
             else if
               Filename.basename dir = "byte"
               && (Filename.check_suffix n ".cmt" || Filename.check_suffix n ".cmti")
             then [ p ]
             else [])

let rec optionals (ct : core_type) =
  match ct.ctyp_desc with
  | Ttyp_arrow (Optional l, _, rest) -> l :: optionals rest
  | Ttyp_arrow (_, _, rest) -> optionals rest
  | Ttyp_poly (_, t) -> optionals t
  | _ -> []

(* Exported values, and the optional labels of every exported function,
   record field ([Unit.type.field]) and function type ([Unit.type]). *)
let values = Hashtbl.create 1024
let options = Hashtbl.create 256
let add_options key ct = List.iter (fun l -> Hashtbl.replace options (key, l) ()) (optionals ct)

let rec exports prefix (sg : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let key = prefix ^ "." ^ Ident.name vd.val_id in
          Hashtbl.replace values key ();
          add_options key vd.val_desc
      | Tsig_type (_, decls) ->
          List.iter
            (fun td ->
              let key = prefix ^ "." ^ Ident.name td.typ_id in
              Option.iter (add_options key) td.typ_manifest;
              match td.typ_kind with
              | Ttype_record lds ->
                  List.iter (fun ld -> add_options (key ^ "." ^ Ident.name ld.ld_id) ld.ld_type) lds
              | _ -> ())
            decls
      | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          exports (prefix ^ "." ^ Ident.name id) sg
      | _ -> ())
    sg.sig_items

(* Who references each key, as (unit, kind); which kinds of caller pass
   each (key, label); and forwards, (caller key, label) -> (callee key,
   label). *)
let refs = Hashtbl.create 4096
let passed = Hashtbl.create 1024
let forwards = ref []

(* The optional parameters of a top-level function, by the ident its body
   sees: [?x] binds [x] itself, [?(x = d)] binds [*opt*] and then [x] in
   a let that matches on it. *)
let rec params key opts (e : expression) =
  match e.exp_desc with
  | Texp_function { arg_label; cases = [ c ]; _ } ->
      (match (arg_label, c.c_lhs.pat_desc) with
      | Optional l, Tpat_var (id, _) -> Ident.Tbl.add opts id (key, l)
      | _ -> ());
      params key opts c.c_rhs
  | Texp_let
      ( _,
        [
          {
            vb_pat = { pat_desc = Tpat_var (id, _); _ };
            vb_expr = { exp_desc = Texp_match ({ exp_desc = Texp_ident (Pident opt, _, _); _ }, _, _); _ };
            _;
          };
        ],
        body )
    when Ident.Tbl.mem opts opt ->
      Ident.Tbl.add opts id (Ident.Tbl.find opts opt);
      params key opts body
  | _ -> ()

(* Names of the unit's top-level values, types and modules by ident, and
   the optional parameters of its top-level functions. *)
let rec tops prefix names opts (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              List.iter
                (fun id ->
                  let key = prefix ^ "." ^ Ident.name id in
                  Ident.Tbl.add names id key;
                  params key opts vb.vb_expr)
                (pat_bound_idents vb.vb_pat))
            vbs
      | Tstr_type (_, decls) ->
          List.iter (fun td -> Ident.Tbl.add names td.typ_id (prefix ^ "." ^ Ident.name td.typ_id)) decls
      | Tstr_module { mb_id = Some id; mb_expr; _ } -> (
          let name = prefix ^ "." ^ Ident.name id in
          Ident.Tbl.add names id name;
          match mb_expr.mod_desc with
          | Tmod_structure s | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
              tops name names opts s
          | _ -> ())
      | _ -> ())
    str.str_items

let rec name_of names = function
  | Path.Pident id -> ( match Ident.Tbl.find_opt names id with Some n -> n | None -> Ident.name id)
  | Pdot (p, s) -> name_of names p ^ "." ^ s
  | p -> Path.name p

let normalize norm env path =
  match path with
  | Path.Pident _ -> path
  | _ -> ( try norm None (Envaux.env_of_only_summary env) path with Envaux.Error _ -> path)

let value_key names env path = name_of names (normalize Env.normalize_value_path env path)
let type_key names env path = name_of names (normalize Env.normalize_type_path env path)

(* The keys a call's optional arguments belong to: the function named or
   the record field read, and the callee's function type if it has a name
   ([b.run ~fuel] passes [?fuel] of both [t.run] and [run_fn]). *)
let callee names (f : expression) =
  let of_type ty =
    match Types.get_desc ty with Tconstr (p, _, _) -> [ type_key names f.exp_env p ] | _ -> []
  in
  match f.exp_desc with
  | Texp_ident (path, _, _) -> value_key names f.exp_env path :: of_type f.exp_type
  | Texp_field (_, _, lbl) ->
      List.map (fun record -> record ^ "." ^ lbl.lbl_name) (of_type lbl.lbl_res) @ of_type f.exp_type
  | _ -> of_type f.exp_type

let scan_impl kind unit str =
  let names = Ident.Tbl.create 256 and opts = Ident.Tbl.create 64 in
  tops unit names opts str;
  let forwarded (e : expression) =
    match e.exp_desc with
    | Texp_ident (Pident id, _, _)
    | Texp_construct (_, { cstr_name = "Some"; _ }, [ { exp_desc = Texp_ident (Pident id, _, _); _ } ]) ->
        Ident.Tbl.find_opt opts id
    | _ -> None
  in
  let pass key (label, arg) =
    match (label, arg) with
    (* An optional argument the caller left out is filled in by the type
       checker with a [None] located nowhere. *)
    | Asttypes.Optional l, Some (e : expression) when e.exp_loc <> Location.none -> (
        match forwarded e with
        | Some src -> forwards := (src, (key, l)) :: !forwards
        | None -> Hashtbl.add passed (key, l) kind)
    | _ -> ()
  in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> Hashtbl.add refs (value_key names e.exp_env path) (unit, kind)
    | Texp_apply (f, args) -> List.iter (fun key -> List.iter (pass key) args) (callee names f)
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str

let read kind file =
  let cmt = Cmt_format.read_cmt file in
  match cmt.cmt_annots with
  | Interface sg when kind = Lib -> exports cmt.cmt_modname sg
  | Implementation str ->
      Load_path.init ~auto_include:Load_path.no_auto_include
        (cmt.cmt_loadpath @ [ Config.standard_library ]);
      Envaux.reset_cache ();
      scan_impl kind cmt.cmt_modname str
  | _ -> ()

(* A forwarded option is passed by every kind of caller that passes the
   forwarding function's own. *)
let rec settle () =
  let changed = ref false in
  List.iter
    (fun (src, dst) ->
      List.iter
        (fun k ->
          if not (List.mem k (Hashtbl.find_all passed dst)) then (
            Hashtbl.add passed dst k;
            changed := true))
        (Hashtbl.find_all passed src))
    !forwards;
  if !changed then settle ()

(* Allowlist lines are [Name: reason] or [Name ?opt: reason]; [#] starts a
   comment line. *)
let allowlist file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n' |> List.map String.trim
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.trim (String.sub line (i + 1) (String.length line - i - 1)) <> "" ->
             String.sub line 0 i
         | _ -> failwith ("lint: allowlist entry without a reason: " ^ line))

let () =
  let allow = ref None and dirs = ref [] in
  Arg.parse
    [ ("-allow", Arg.String (fun f -> allow := Some f), "FILE test-only surface kept on purpose") ]
    (fun a ->
      match String.index_opt a ':' with
      | Some i ->
          let dir = String.sub a (i + 1) (String.length a - i - 1) in
          if not (Sys.file_exists dir && Sys.is_directory dir) then
            raise (Arg.Bad ("not a directory: " ^ dir));
          dirs := (kind_of (String.sub a 0 i), dir) :: !dirs
      | None -> raise (Arg.Bad ("expected KIND:DIR, got " ^ a)))
    "lint.exe [-allow FILE] KIND:DIR ...";
  let inputs = List.concat_map (fun (k, d) -> List.map (fun f -> (k, f)) (files d)) (List.rev !dirs) in
  List.iter (fun (k, f) -> read k f) inputs;
  settle ();
  let allowed = Hashtbl.create 64 in
  Option.iter (fun f -> List.iter (fun n -> Hashtbl.replace allowed n false) (allowlist f)) !allow;
  let findings = ref [] in
  let report fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt in
  let test_only name kinds =
    List.for_all (( = ) Test) kinds
    && not (Hashtbl.mem allowed name && (Hashtbl.replace allowed name true; true))
  in
  Hashtbl.iter
    (fun key () ->
      let unit = String.sub key 0 (String.index key '.') in
      let callers = Hashtbl.find_all refs key |> List.filter (fun (u, _) -> u <> unit) |> List.map snd in
      let name = display key in
      if callers = [] then report "dead export: %s" name
      else if test_only name callers then report "test-only export: %s" name)
    values;
  Hashtbl.iter
    (fun (key, l) () ->
      let name = Printf.sprintf "%s ?%s" (display key) l in
      match Hashtbl.find_all passed (key, l) with
      | [] -> report "never passed: %s" name
      | kinds -> if test_only name kinds then report "only tests pass: %s" name)
    options;
  Hashtbl.iter (fun n used -> if not used then report "stale allowlist entry: %s" n) allowed;
  let findings = List.sort_uniq compare !findings in
  List.iter print_endline findings;
  exit (if findings = [] then 0 else 1)
