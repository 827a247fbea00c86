type error = { func : string; block : string; message : string }

let pp_error fmt e =
  Format.fprintf fmt "%s/%s: %s" e.func e.block e.message

let err func block fmt = Format.kasprintf (fun message -> { func; block; message }) fmt

(* Name tables built once per program, so each lookup is O(1) instead
   of a scan of the program's lists.  The first of duplicate names
   wins, as it does for [Prog.find_func]. *)
type names = {
  funcs : (string, Func.t) Hashtbl.t;
  globals : (string, Prog.global) Hashtbl.t;
  externs : (string, string) Hashtbl.t;
}

let table key xs =
  let t = Hashtbl.create (List.length xs) in
  List.iter (fun x -> if not (Hashtbl.mem t (key x)) then Hashtbl.add t (key x) x) xs;
  t

let names_of (p : Prog.t) =
  {
    funcs = table (fun (f : Func.t) -> f.name) p.funcs;
    globals = table (fun (g : Prog.global) -> g.gname) p.globals;
    externs = table Fun.id p.externs;
  }

(* Verification state of one function.  The checks below are top-level
   functions of it, so checking a block allocates nothing until an
   error is found.  [defs] counts, per register, the definitions
   visible at this point: the parameters, every definition in a block
   that strictly dominates the current one, and the current block's
   definitions so far.  The arrays are shared by a program's functions,
   so only a prefix of each belongs to [f]. *)
type cx = {
  names : names;
  f : Func.t;
  cfg : Cfg.t;
  defs : int array;
  nregs : int;
  first_child : int array;  (** dominator-tree children, as linked lists *)
  next_sibling : int array;
  mutable label : string;  (** the block being checked *)
  mutable errors : error list;  (** its errors, newest first *)
  mutable by_block : error list array;  (** per [cfg] block; [[||]] while none *)
}

let report cx fmt =
  Format.kasprintf
    (fun message ->
      cx.errors <- { func = cx.f.name; block = cx.label; message } :: cx.errors)
    fmt

let callee_known names name = Hashtbl.mem names.funcs name || Hashtbl.mem names.externs name

let check_operand cx what = function
  | Instr.Reg r ->
      if r < 0 || r >= cx.nregs then report cx "%s: register %%r%d out of range" what r
      else if cx.defs.(r) = 0 then
        report cx "%s: register %%r%d may be used before definition" what r
  | Instr.Global g ->
      if not (Hashtbl.mem cx.names.globals g) then
        report cx "%s: unknown global @%s" what g
  | Instr.Func_ref fn ->
      if not (callee_known cx.names fn) then
        report cx "%s: unknown function reference @%s" what fn
  | Instr.Imm _ -> ()

let operand cx o = check_operand cx "operand" o

let count cx delta i =
  let r = Instr.dst i in
  if r >= 0 && r < cx.nregs then cx.defs.(r) <- cx.defs.(r) + delta

let check_instr cx i =
  Instr.iter_operands operand cx i;
  (match i with
  | Instr.Load { ty; _ } when not (Ty.is_scalar ty) ->
      report cx "load of aggregate type %s" (Ty.to_string ty)
  | Instr.Store { ty; _ } when not (Ty.is_scalar ty) ->
      report cx "store of aggregate type %s" (Ty.to_string ty)
  | Instr.Sext { width; _ } | Instr.Trunc { width; _ } ->
      if not (width = 1 || width = 2 || width = 4 || width = 8) then
        report cx "cast width %d not in {1,2,4,8}" width
  | Instr.Call { callee; dst; _ } ->
      if not (callee_known cx.names callee) then
        report cx "call to unknown function @%s" callee
      else if
        Option.is_some dst
        && Hashtbl.mem cx.names.funcs callee
        && Option.is_none (Hashtbl.find cx.names.funcs callee).returns
      then report cx "call uses result of void function @%s" callee
  | _ -> ());
  count cx 1 i

let rec check_instrs cx = function
  | [] -> ()
  | i :: rest ->
      check_instr cx i;
      check_instrs cx rest

let rec uncount_defs cx = function
  | [] -> ()
  | i :: rest ->
      count cx (-1) i;
      uncount_defs cx rest

let check_target cx l =
  if not (Hashtbl.mem cx.cfg.position l) then report cx "branch to unknown label %%%s" l

(* The errors of reachable block [i], in the order the checks meet
   them.  The block's own definitions are left counted on return, for
   its dominator-tree children. *)
let check_block cx i =
  let b = cx.cfg.blocks.(i) in
  cx.label <- b.label;
  check_instrs cx b.instrs;
  (match b.term with
  | Instr.Ret (Some v) | Instr.Cond_br { cond = v; _ } -> check_operand cx "terminator" v
  | Instr.Ret None | Instr.Br _ | Instr.Unreachable -> ());
  (match (b.term, cx.f.returns) with
  | Instr.Ret (Some _), None -> report cx "ret with value in void function"
  | Instr.Ret None, Some _ -> report cx "ret without value in non-void function"
  | _ -> ());
  (* both targets of a [Cond_br], even when equal: each is checked
     (and reported) on its own *)
  (match b.term with
  | Instr.Br l -> check_target cx l
  | Instr.Cond_br { if_true; if_false; _ } ->
      check_target cx if_true;
      check_target cx if_false
  | Instr.Ret _ | Instr.Unreachable -> ());
  match cx.errors with
  | [] -> ()
  | errors ->
      if Array.length cx.by_block = 0 then
        cx.by_block <- Array.make (Array.length cx.cfg.blocks) [];
      cx.by_block.(i) <- List.rev errors;
      cx.errors <- []

(* One walk down the dominator tree, counting definitions on the way
   down and uncounting them on the way back up, gives every block the
   definitions of its strict dominators. *)
let rec walk cx i =
  check_block cx i;
  let c = ref cx.first_child.(i) in
  while !c >= 0 do
    walk cx !c;
    c := cx.next_sibling.(!c)
  done;
  uncount_defs cx cx.cfg.blocks.(i).instrs

let entry_targets (f : Func.t) (entry : Func.block) =
  let errors = ref [] in
  let check (b : Func.block) l =
    if String.equal l entry.label then
      errors := err f.name b.label "branch targets the entry block" :: !errors
  in
  List.iter
    (fun (b : Func.block) ->
      match b.term with
      | Instr.Br l -> check b l
      | Instr.Cond_br { if_true; if_false; _ } ->
          check b if_true;
          check b if_false
      | Instr.Ret _ | Instr.Unreachable -> ())
    f.blocks;
  List.rev !errors

let rec count_params cx delta = function
  | [] -> ()
  | (r, _) :: rest ->
      if r >= 0 && r < cx.nregs then cx.defs.(r) <- cx.defs.(r) + delta;
      count_params cx delta rest

let verify_func names ~defs ~first_child ~next_sibling (f : Func.t) =
  match f.blocks with
  | [] -> [ err f.name "-" "function has no blocks" ]
  | entry :: _ ->
      (* [Cfg.of_func] keeps only the blocks reachable from the entry:
         unreachable blocks never execute and transformation passes may
         legitimately strand them mid-pipeline, so only reachable code
         is held to the def-before-use discipline.  A register is usable
         only where a definition of it dominates the use. *)
      let cfg = Cfg.of_func f in
      let idom = Cfg.idom cfg in
      let n = Array.length cfg.blocks in
      Array.fill first_child 0 n (-1);
      for i = n - 1 downto 1 do
        next_sibling.(i) <- first_child.(idom.(i));
        first_child.(idom.(i)) <- i
      done;
      let cx =
        {
          names;
          f;
          cfg;
          defs;
          nregs = Func.reg_count f;
          first_child;
          next_sibling;
          label = "";
          errors = [];
          by_block = [||];
        }
      in
      count_params cx 1 f.params;
      if n > 0 then walk cx 0;
      count_params cx (-1) f.params;
      let entry_targets = entry_targets f entry in
      if Array.length cx.by_block = 0 then entry_targets
      else
        (* Report in [f.blocks] order, not dominator-tree order. *)
        entry_targets
        @ List.concat_map
            (fun (b : Func.block) ->
              match Cfg.index_of cfg b.label with
              | i when cfg.blocks.(i) == b -> cx.by_block.(i)
              | _ | (exception Not_found) -> [])
            f.blocks

let verify p =
  let names = names_of p in
  let most g = List.fold_left (fun m f -> Int.max m (g f)) 0 p.Prog.funcs in
  let defs = Array.make (most Func.reg_count) 0 in
  let nblocks = most (fun f -> List.length f.blocks) in
  let first_child = Array.make nblocks (-1) and next_sibling = Array.make nblocks (-1) in
  List.concat_map (verify_func names ~defs ~first_child ~next_sibling) p.funcs
