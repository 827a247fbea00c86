type error = { func : string; block : string; message : string }

let pp_error fmt e =
  Format.fprintf fmt "%s/%s: %s" e.func e.block e.message

let err func block fmt = Format.kasprintf (fun message -> { func; block; message }) fmt

(* Both targets of a [Cond_br], even when equal: each is checked (and
   reported) on its own. *)
let successors (b : Func.block) =
  match b.term with
  | Instr.Ret _ | Instr.Unreachable -> []
  | Instr.Br l -> [ l ]
  | Instr.Cond_br { if_true; if_false; _ } -> [ if_true; if_false ]

(* Name tables built once per program, so each lookup is O(1) instead
   of a scan of the program's lists.  The first of duplicate names
   wins, as it does for [Prog.find_func]. *)
type names = {
  funcs : (string, Func.t) Hashtbl.t;
  globals : (string, Prog.global) Hashtbl.t;
  externs : (string, string) Hashtbl.t;
}

let table key xs =
  let t = Hashtbl.create (2 * List.length xs + 1) in
  List.iter (fun x -> if not (Hashtbl.mem t (key x)) then Hashtbl.add t (key x) x) xs;
  t

let names_of (p : Prog.t) =
  {
    funcs = table (fun (f : Func.t) -> f.name) p.funcs;
    globals = table (fun (g : Prog.global) -> g.gname) p.globals;
    externs = table Fun.id p.externs;
  }

(* Errors of one reachable block, in the order the checks meet them.
   [defs] counts, per register, the definitions visible at this point:
   the parameters, every definition in a block that strictly dominates
   this one, and this block's definitions so far.  The block's own
   definitions are left counted on return, for its dominator-tree
   children. *)
let check_block names (f : Func.t) ~labels ~defs (b : Func.block) =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  let nregs = Array.length defs in
  let callee_known name = Hashtbl.mem names.funcs name || Hashtbl.mem names.externs name in
  let check_operand what = function
    | Instr.Reg r ->
        if r < 0 || r >= nregs then
          add (err f.name b.label "%s: register %%r%d out of range" what r)
        else if defs.(r) = 0 then
          add
            (err f.name b.label "%s: register %%r%d may be used before definition" what
               r)
    | Instr.Global g ->
        if not (Hashtbl.mem names.globals g) then
          add (err f.name b.label "%s: unknown global @%s" what g)
    | Instr.Func_ref fn ->
        if not (callee_known fn) then
          add (err f.name b.label "%s: unknown function reference @%s" what fn)
    | Instr.Imm _ -> ()
  in
  let operand o = check_operand "operand" o in
  List.iter
    (fun i ->
      List.iter operand (Instr.operands i);
      (match i with
      | Instr.Load { ty; _ } when not (Ty.is_scalar ty) ->
          add (err f.name b.label "load of aggregate type %s" (Ty.to_string ty))
      | Instr.Store { ty; _ } when not (Ty.is_scalar ty) ->
          add (err f.name b.label "store of aggregate type %s" (Ty.to_string ty))
      | Instr.Sext { width; _ } | Instr.Trunc { width; _ } ->
          if not (width = 1 || width = 2 || width = 4 || width = 8) then
            add (err f.name b.label "cast width %d not in {1,2,4,8}" width)
      | Instr.Call { callee; dst; _ } -> (
          if not (callee_known callee) then
            add (err f.name b.label "call to unknown function @%s" callee)
          else
            match (Hashtbl.find_opt names.funcs callee, dst) with
            | Some callee_f, Some _ when Option.is_none callee_f.returns ->
                add (err f.name b.label "call uses result of void function @%s" callee)
            | _ -> ())
      | _ -> ());
      match Instr.defined_reg i with
      | Some r when r >= 0 && r < nregs -> defs.(r) <- defs.(r) + 1
      | _ -> ())
    b.instrs;
  List.iter (check_operand "terminator") (Instr.terminator_operands b.term);
  (match (b.term, f.returns) with
  | Instr.Ret (Some _), None -> add (err f.name b.label "ret with value in void function")
  | Instr.Ret None, Some _ ->
      add (err f.name b.label "ret without value in non-void function")
  | _ -> ());
  List.iter
    (fun l ->
      if not (Hashtbl.mem labels l) then
        add (err f.name b.label "branch to unknown label %%%s" l))
    (successors b);
  List.rev !errors

let uncount_defs ~defs (b : Func.block) =
  List.iter
    (fun i ->
      match Instr.defined_reg i with
      | Some r when r >= 0 && r < Array.length defs -> defs.(r) <- defs.(r) - 1
      | _ -> ())
    b.instrs

let verify_func names (f : Func.t) =
  match f.blocks with
  | [] -> [ err f.name "-" "function has no blocks" ]
  | entry :: _ ->
      let entry_targets =
        List.concat_map
          (fun (b : Func.block) ->
            List.filter_map
              (fun l ->
                if String.equal l entry.label then
                  Some (err f.name b.label "branch targets the entry block")
                else None)
              (successors b))
          f.blocks
      in
      let labels = Hashtbl.create 16 in
      List.iter (fun (b : Func.block) -> Hashtbl.replace labels b.label ()) f.blocks;
      (* [Cfg.of_func] keeps only the blocks reachable from the entry:
         unreachable blocks never execute and transformation passes may
         legitimately strand them mid-pipeline, so only reachable code
         is held to the def-before-use discipline.  A register is usable
         only where a definition of it dominates the use, so one walk
         down the dominator tree, counting definitions on the way down
         and uncounting them on the way back up, gives every block the
         definitions of its strict dominators. *)
      let cfg = Cfg.of_func f in
      let idom = Cfg.idom cfg in
      let n = Array.length cfg.blocks in
      let children = Array.make n [] in
      for i = n - 1 downto 1 do
        children.(idom.(i)) <- i :: children.(idom.(i))
      done;
      let defs = Array.make (Func.reg_count f) 0 in
      List.iter
        (fun (r, _) -> if r >= 0 && r < Array.length defs then defs.(r) <- defs.(r) + 1)
        f.params;
      let block_errors = Array.make n [] in
      let rec walk i =
        let b = cfg.blocks.(i) in
        block_errors.(i) <- check_block names f ~labels ~defs b;
        List.iter walk children.(i);
        uncount_defs ~defs b
      in
      if n > 0 then walk 0;
      (* Report in [f.blocks] order, not dominator-tree order. *)
      entry_targets
      @ List.concat_map
          (fun (b : Func.block) ->
            match Hashtbl.find_opt cfg.index_of b.label with
            | Some i when cfg.blocks.(i) == b -> block_errors.(i)
            | _ -> [])
          f.blocks

let verify p =
  let names = names_of p in
  List.concat_map (verify_func names) p.funcs
