(* The IR verifier as it was before the linear-time rewrite, kept
   verbatim as the reference model for the differential property in
   test_ir.ml: per-block [IntSet] unions of the dominators' definitions
   and list scans for labels, blocks, functions and globals. *)

open Ir

type error = { func : string; block : string; message : string }

let pp_error fmt e =
  Format.fprintf fmt "%s/%s: %s" e.func e.block e.message

let err func block fmt = Format.kasprintf (fun message -> { func; block; message }) fmt

module IntSet = Set.Make (Int)

let successors (b : Func.block) =
  match b.term with
  | Instr.Ret _ | Instr.Unreachable -> []
  | Instr.Br l -> [ l ]
  | Instr.Cond_br { if_true; if_false; _ } -> [ if_true; if_false ]

(* Registers guaranteed defined at entry of each reachable block: the
   parameters plus every definition in a strictly dominating block.
   Dominance — not the old definite-assignment intersection dataflow —
   is the property a compiler IR wants: a register is usable only where
   its defining instruction is guaranteed to have already executed,
   which is exactly "the definition site dominates the use".  Built on
   the shared {!Cfg} dominator tree; [Cfg.of_func] drops unreachable
   blocks, matching the verifier's leniency toward stranded code. *)
let defined_at_entry (f : Func.t) =
  let cfg = Cfg.of_func f in
  let idom = Cfg.idom cfg in
  let n = Array.length cfg.blocks in
  let defs_in =
    Array.map
      (fun (b : Func.block) ->
        List.fold_left
          (fun s i ->
            match Instr.defined_reg i with Some r -> IntSet.add r s | None -> s)
          IntSet.empty b.instrs)
      cfg.blocks
  in
  let params = IntSet.of_list (List.map fst f.params) in
  let at_entry = Array.make n params in
  (* RPO guarantees [idom.(i) < i], so one pass in index order settles
     every block: available-at-entry = available at the immediate
     dominator's entry plus its own definitions. *)
  for i = 1 to n - 1 do
    at_entry.(i) <- IntSet.union at_entry.(idom.(i)) defs_in.(idom.(i))
  done;
  fun label -> at_entry.(Cfg.index_of cfg label)

let verify_func (p : Prog.t) (f : Func.t) =
  let errors = ref [] in
  let add e = errors := e :: !errors in
  (match f.blocks with
  | [] -> add (err f.name "-" "function has no blocks")
  | entry :: rest ->
      List.iter
        (fun (b : Func.block) ->
          List.iter
            (fun l ->
              if String.equal l entry.label then
                add (err f.name b.label "branch targets the entry block"))
            (successors b))
        (entry :: rest));
  if f.blocks <> [] then begin
    let entry_defined = defined_at_entry f in
    let labels =
      List.fold_left
        (fun s (b : Func.block) -> b.label :: s)
        [] f.blocks
    in
    (* Unreachable blocks never execute and transformation passes may
       legitimately strand them mid-pipeline; only reachable code is
       held to the def-before-use discipline. *)
    let reachable = Hashtbl.create 16 in
    let rec visit label =
      if not (Hashtbl.mem reachable label) then begin
        Hashtbl.add reachable label ();
        match Func.find_block f label with
        | Some b -> List.iter visit (successors b)
        | None -> ()
      end
    in
    visit (List.hd f.blocks).label;
    let callee_known name =
      Option.is_some (Prog.find_func p name) || Prog.is_extern p name
    in
    List.iter
      (fun (b : Func.block) ->
        if Hashtbl.mem reachable b.label then
        let defined = ref (entry_defined b.label) in
        let check_operand what = function
          | Instr.Reg r ->
              if r < 0 || r >= Func.reg_count f then
                add (err f.name b.label "%s: register %%r%d out of range" what r)
              else if not (IntSet.mem r !defined) then
                add
                  (err f.name b.label "%s: register %%r%d may be used before definition"
                     what r)
          | Instr.Global g ->
              if Option.is_none (Prog.find_global p g) then
                add (err f.name b.label "%s: unknown global @%s" what g)
          | Instr.Func_ref fn ->
              if not (callee_known fn) then
                add (err f.name b.label "%s: unknown function reference @%s" what fn)
          | Instr.Imm _ -> ()
        in
        List.iter
          (fun i ->
            List.iter (check_operand "operand") (Instr.operands i);
            (match i with
            | Instr.Load { ty; _ } when not (Ty.is_scalar ty) ->
                add (err f.name b.label "load of aggregate type %s" (Ty.to_string ty))
            | Instr.Store { ty; _ } when not (Ty.is_scalar ty) ->
                add (err f.name b.label "store of aggregate type %s" (Ty.to_string ty))
            | Instr.Sext { width; _ } | Instr.Trunc { width; _ } ->
                if not (List.mem width [ 1; 2; 4; 8 ]) then
                  add (err f.name b.label "cast width %d not in {1,2,4,8}" width)
            | Instr.Call { callee; dst; _ } -> (
                if not (callee_known callee) then
                  add (err f.name b.label "call to unknown function @%s" callee)
                else
                  match (Prog.find_func p callee, dst) with
                  | Some callee_f, Some _ when Option.is_none callee_f.returns ->
                      add
                        (err f.name b.label "call uses result of void function @%s"
                           callee)
                  | _ -> ())
            | _ -> ());
            match Instr.defined_reg i with
            | Some r -> defined := IntSet.add r !defined
            | None -> ())
          b.instrs;
        List.iter (check_operand "terminator") (Instr.terminator_operands b.term);
        (match (b.term, f.returns) with
        | Instr.Ret (Some _), None ->
            add (err f.name b.label "ret with value in void function")
        | Instr.Ret None, Some _ ->
            add (err f.name b.label "ret without value in non-void function")
        | _ -> ());
        List.iter
          (fun l ->
            if not (List.mem l labels) then
              add (err f.name b.label "branch to unknown label %%%s" l))
          (successors b))
      f.blocks
  end;
  List.rev !errors

let verify p = List.concat_map (verify_func p) p.funcs
