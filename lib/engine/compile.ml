(* Flattening Ir.Func.t into dense bytecode over an unboxed frame.

   Everything the reference interpreter resolves per-instruction through
   hashtables or list walks is resolved once here: block labels become
   instruction indices, direct callees become function indices,
   intrinsic names become slots into a per-run closure table, and every
   operand becomes the byte offset of a 64-bit frame slot.  Immediates,
   global addresses and function tokens live in constant slots that the
   function's frame template carries, so Interp reads every operand with
   one unboxed load and starts each call with one copy of the template.
   Generic operators are split per operator (one op for [add], one for
   [ult], ...), so the dispatch loop never goes through a generic
   evaluator.

   Resolution failures (unknown global, unknown function reference or
   callee, missing label, register outside the frame, bad cast width)
   must NOT fail at compile time: the reference interpreter only raises
   when the broken operand is actually evaluated.  Where that point is
   fixed — an op that reads its operands unconditionally — the op
   compiles to an [Oraise] that counts, charges and raises exactly as
   the reference does before and at that read.  Where it depends on the
   run — the arms of a select, call arguments — the operand is a
   negative index into the function's trap table, checked as it is
   read. *)

type op =
  | Oadd of { dst : int; lhs : int; rhs : int }
  | Osub of { dst : int; lhs : int; rhs : int }
  | Omul of { dst : int; lhs : int; rhs : int }
  | Osdiv of { dst : int; lhs : int; rhs : int }
  | Oudiv of { dst : int; lhs : int; rhs : int }
  | Osrem of { dst : int; lhs : int; rhs : int }
  | Ourem of { dst : int; lhs : int; rhs : int }
  | Oand of { dst : int; lhs : int; rhs : int }
  | Oor of { dst : int; lhs : int; rhs : int }
  | Oxor of { dst : int; lhs : int; rhs : int }
  | Oshl of { dst : int; lhs : int; rhs : int }
  | Olshr of { dst : int; lhs : int; rhs : int }
  | Oashr of { dst : int; lhs : int; rhs : int }
  | Oeq of { dst : int; lhs : int; rhs : int }
  | One of { dst : int; lhs : int; rhs : int }
  | Oslt of { dst : int; lhs : int; rhs : int }
  | Osle of { dst : int; lhs : int; rhs : int }
  | Osgt of { dst : int; lhs : int; rhs : int }
  | Osge of { dst : int; lhs : int; rhs : int }
  | Oult of { dst : int; lhs : int; rhs : int }
  | Oule of { dst : int; lhs : int; rhs : int }
  | Oselect of { dst : int; cond : int; if_true : int; if_false : int }
      (** arms may be trap operands *)
  | Osext of { dst : int; shift : int; value : int }
      (** [shift = 64 - 8 * width] *)
  | Otrunc of { dst : int; shift : int; value : int }
  | Ogep of { dst : int; base : int; offset : int; index : int; scale : int }
      (** absent index encodes as a zero constant with [scale = 0] *)
  | Oload of { dst : int; width : int; addr : int }
  | Ostore of { width : int; value : int; addr : int }
  | Oalloca of { dst : int; elt : int; align : int; count : int }
      (** absent count encodes as a constant 1 *)
  | Ocall of { dst : int; fidx : int; args : int array }
  | Obuiltin of { dst : int; name : string; args : int array }
  | Ocall_unknown of { name : string; args : int array }
      (** callee is neither a function nor an extern: evaluate the
          arguments (they may trap first, as in the reference), then
          fault *)
  | Ocall_ind of { dst : int; callee : int; args : int array }
  | Ointrinsic of { dst : int; slot : int; name : string; args : int array }
  | Ojmp of int
  | Ocondbr of { cond : int; if_true : int; if_false : int }
  | Oret of int  (** void returns read a zero constant *)
  | Ounreachable of string  (** function name, for the fault message *)
  | Oraise of { counted : bool; cost : float; exn : exn }
      (** count the instruction if [counted], charge [cost] if positive,
          then raise [exn] *)
  | Ogep_load of {
      dst : int;
      base : int;
      offset : int;
      index : int;
      scale : int;
      width : int;
      ldst : int;
    }  (** [Ogep], then an [Oload] of its result into [ldst] *)
  | Oload_load of {
      dst : int;
      width : int;
      addr : int;
      dst2 : int;
      width2 : int;
      addr2 : int;
    }
  | Oadd_store of { dst : int; lhs : int; rhs : int; width : int; addr : int }
      (** [Oadd], then an [Ostore] of its result *)
  | Ostore_jmp of { width : int; value : int; addr : int; target : int }
  | One_condbr of {
      dst : int;
      lhs : int;
      rhs : int;
      if_true : int;
      if_false : int;
    }  (** [One], then an [Ocondbr] on its result *)
  | Oslt_condbr of {
      dst : int;
      lhs : int;
      rhs : int;
      ndst : int;
      if_true : int;
      if_false : int;
    }
      (** [Oslt], an [One] of its result against 0 into [ndst], then an
          [Ocondbr] on that *)
  | Oeq_condbr of {
      dst : int;
      lhs : int;
      rhs : int;
      ndst : int;
      if_true : int;
      if_false : int;
    }  (** as [Oslt_condbr] with [Oeq] *)

type bfunc = {
  fname : string;
  params : int array;
  frame : Bytes.t;
  traps : exn array;
  code : op array;
}

type program = {
  funcs : bfunc array;
  index : (string, int) Hashtbl.t;
  intrinsic_names : string array;  (* slot -> name *)
}

let token_base = Machine.Exec.func_token_base

(* ------------------------------------------------------------------ *)

type ctx = {
  globals : (string, int) Hashtbl.t;
  func_tokens : (string, int) Hashtbl.t;
  func_index : (string, int) Hashtbl.t;
  prog : Ir.Prog.t;
  intrinsic_slots : (string, int) Hashtbl.t;
  mutable slot_names : string list;  (* reverse order *)
  mutable next_slot : int;
}

(* Per-function state.  Frame layout, in 8-byte slots: the [nregs]
   registers, one sink slot (discarded results, and the write target of
   registers outside the frame), then the constants. *)
type fctx = {
  g : ctx;
  nregs : int;
  consts : (int64, int) Hashtbl.t;  (* value -> byte offset *)
  mutable nslots : int;
  mutable traps : exn list;  (* reverse order *)
  mutable ntraps : int;
  mutable trap : exn option;
      (* first unresolvable strict operand of the instruction being
         compiled *)
}

type operand = Slot of int | Trap of exn

(* The reference's frame is an [int64 array] of [max 1 reg_count]
   slots, so a register outside it fails the array bounds check. *)
let bad_register = Invalid_argument "index out of bounds"
let in_frame fc r = r >= 0 && r < fc.nregs
let sink fc = 8 * fc.nregs

let const fc v =
  match Hashtbl.find_opt fc.consts v with
  | Some off -> off
  | None ->
      let off = 8 * fc.nslots in
      fc.nslots <- fc.nslots + 1;
      Hashtbl.replace fc.consts v off;
      off

let operand fc = function
  | Ir.Instr.Reg r -> if in_frame fc r then Slot (8 * r) else Trap bad_register
  | Ir.Instr.Imm i -> Slot (const fc i)
  | Ir.Instr.Global g -> (
      match Hashtbl.find_opt fc.g.globals g with
      | Some a -> Slot (const fc (Int64.of_int a))
      | None ->
          (* as Exec.global_addr *)
          Trap
            (Invalid_argument
               (Printf.sprintf "Machine.Exec.global_addr: no global %s" g)))
  | Ir.Instr.Func_ref fn -> (
      match Hashtbl.find_opt fc.g.func_tokens fn with
      | Some t -> Slot (const fc (Int64.of_int t))
      | None ->
          Trap
            (Machine.Memory.Fault
               (Machine.Memory.Misc
                  (Printf.sprintf "unknown function reference %s" fn))))

(* An operand the op reads unconditionally: call in the reference's
   evaluation order, then close the op with [guard]. *)
let strict fc o =
  match operand fc o with
  | Slot off -> off
  | Trap e ->
      if Option.is_none fc.trap then fc.trap <- Some e;
      sink fc

(* An operand that may go unread (select arms) or is read in a loop
   (call arguments): a trap becomes [lnot] its trap-table index. *)
let lazy_ fc o =
  match operand fc o with
  | Slot off -> off
  | Trap e ->
      let i = fc.ntraps in
      fc.traps <- e :: fc.traps;
      fc.ntraps <- i + 1;
      lnot i

let guard fc ~counted ~cost op =
  match fc.trap with
  | Some exn ->
      fc.trap <- None;
      Oraise { counted; cost; exn }
  | None -> op

let dst_slot fc r = if in_frame fc r then 8 * r else sink fc

let intrinsic_slot ctx name =
  match Hashtbl.find_opt ctx.intrinsic_slots name with
  | Some s -> s
  | None ->
      let s = ctx.next_slot in
      ctx.next_slot <- s + 1;
      ctx.slot_names <- name :: ctx.slot_names;
      Hashtbl.replace ctx.intrinsic_slots name s;
      s

let binop (op : Ir.Instr.binop) ~dst ~lhs ~rhs =
  match op with
  | Add -> Oadd { dst; lhs; rhs }
  | Sub -> Osub { dst; lhs; rhs }
  | Mul -> Omul { dst; lhs; rhs }
  | Sdiv -> Osdiv { dst; lhs; rhs }
  | Udiv -> Oudiv { dst; lhs; rhs }
  | Srem -> Osrem { dst; lhs; rhs }
  | Urem -> Ourem { dst; lhs; rhs }
  | And -> Oand { dst; lhs; rhs }
  | Or -> Oor { dst; lhs; rhs }
  | Xor -> Oxor { dst; lhs; rhs }
  | Shl -> Oshl { dst; lhs; rhs }
  | Lshr -> Olshr { dst; lhs; rhs }
  | Ashr -> Oashr { dst; lhs; rhs }

let icmp (op : Ir.Instr.icmp) ~dst ~lhs ~rhs =
  match op with
  | Eq -> Oeq { dst; lhs; rhs }
  | Ne -> One { dst; lhs; rhs }
  | Slt -> Oslt { dst; lhs; rhs }
  | Sle -> Osle { dst; lhs; rhs }
  | Sgt -> Osgt { dst; lhs; rhs }
  | Sge -> Osge { dst; lhs; rhs }
  | Ult -> Oult { dst; lhs; rhs }
  | Ule -> Oule { dst; lhs; rhs }

(* [value] first: a bad width raises only once the operand is read, with
   Sutil.Bytecodec's message *)
let cast fc ~fn ~width value =
  let value = strict fc value in
  if Option.is_none fc.trap && not (List.mem width [ 1; 2; 4; 8 ]) then
    fc.trap <-
      Some
        (Invalid_argument
           (Printf.sprintf "Sutil.Bytecodec.%s: bad width %d" fn width));
  value

let result fc = function Some d -> dst_slot fc d | None -> sink fc
let args fc l = Array.of_list (List.map (lazy_ fc) l)

let compile_instr fc (i : Ir.Instr.t) : op =
  let counted = true in
  match i with
  | Binop { dst = d; op; lhs; rhs } ->
      (* reference operand order: rhs, then lhs *)
      let rhs = strict fc rhs in
      let lhs = strict fc lhs in
      let cost =
        match op with
        | Sdiv | Udiv | Srem | Urem -> Machine.Cost.div
        | _ -> Machine.Cost.alu
      in
      guard fc ~counted ~cost (binop op ~dst:(dst_slot fc d) ~lhs ~rhs)
  | Icmp { dst = d; op; lhs; rhs } ->
      let rhs = strict fc rhs in
      let lhs = strict fc lhs in
      guard fc ~counted ~cost:Machine.Cost.alu
        (icmp op ~dst:(dst_slot fc d) ~lhs ~rhs)
  | Select { dst = d; cond; if_true; if_false } ->
      let cond = strict fc cond in
      guard fc ~counted ~cost:Machine.Cost.alu
        (Oselect
           {
             dst = dst_slot fc d;
             cond;
             if_true = lazy_ fc if_true;
             if_false = lazy_ fc if_false;
           })
  | Sext { dst = d; width; value } ->
      let value = cast fc ~fn:"sext" ~width value in
      guard fc ~counted ~cost:Machine.Cost.alu
        (Osext { dst = dst_slot fc d; shift = 64 - (8 * width); value })
  | Trunc { dst = d; width; value } ->
      let value = cast fc ~fn:"zext" ~width value in
      guard fc ~counted ~cost:Machine.Cost.alu
        (Otrunc { dst = dst_slot fc d; shift = 64 - (8 * width); value })
  | Gep { dst = d; base; offset; index } ->
      (* reference operand order: index, then base *)
      let index, scale =
        match index with
        | None -> (const fc 0L, 0)
        | Some (i, scale) -> (strict fc i, scale)
      in
      let base = strict fc base in
      guard fc ~counted ~cost:Machine.Cost.alu
        (Ogep { dst = dst_slot fc d; base; offset; index; scale })
  | Load { dst = d; ty; addr } ->
      let addr = strict fc addr in
      guard fc ~counted ~cost:0.
        (Oload { dst = dst_slot fc d; width = Ir.Ty.scalar_width ty; addr })
  | Store { ty; value; addr } ->
      (* reference operand order: value, then addr *)
      let value = strict fc value in
      let addr = strict fc addr in
      guard fc ~counted ~cost:Machine.Cost.store
        (Ostore { width = Ir.Ty.scalar_width ty; value; addr })
  | Alloca { dst = d; ty; count; name = _ } ->
      let count = match count with None -> const fc 1L | Some c -> strict fc c in
      guard fc ~counted ~cost:0.
        (Oalloca
           {
             dst = dst_slot fc d;
             elt = Ir.Ty.size ty;
             align = max 1 (Ir.Ty.alignment ty);
             count;
           })
  | Call { dst = d; callee; args = a } -> (
      let args = args fc a and dst = result fc d in
      match Hashtbl.find_opt fc.g.func_index callee with
      | Some fidx -> Ocall { dst; fidx; args }
      | None ->
          if Ir.Prog.is_extern fc.g.prog callee then
            Obuiltin { dst; name = callee; args }
          else Ocall_unknown { name = callee; args })
  | Call_ind { dst = d; callee; args = a } ->
      let callee = strict fc callee in
      guard fc ~counted ~cost:0.
        (Ocall_ind { dst = result fc d; callee; args = args fc a })
  | Intrinsic { dst = d; name; args = a } ->
      Ointrinsic
        {
          dst = result fc d;
          slot = intrinsic_slot fc.g name;
          name;
          args = args fc a;
        }

(* Writing a register outside the frame fails only after the
   instruction has run, as [regs.(dst) <- v] does in the reference. *)
let bad_write = Oraise { counted = false; cost = 0.; exn = bad_register }

(* The shared target of branches to labels that do not exist. *)
let missing_label = Oraise { counted = false; cost = 0.; exn = Not_found }

(* Fills a code array until its ops are written.  All its fields are
   constants, so it is statically allocated and never young: an
   [Array.make] of a young value longer than [Max_young_wosize] would
   first force a minor collection. *)
let filler = Ojmp 0

let writes_outside fc i =
  match Ir.Instr.defined_reg i with Some r -> not (in_frame fc r) | None -> false

let terminator fc target fname (t : Ir.Instr.terminator) =
  let counted = false in
  match t with
  | Ret None -> Oret (const fc 0L)
  | Ret (Some v) ->
      let v = strict fc v in
      guard fc ~counted ~cost:Machine.Cost.branch (Oret v)
  | Br l -> Ojmp (target l)
  | Cond_br { cond; if_true; if_false } ->
      let cond = strict fc cond in
      guard fc ~counted ~cost:Machine.Cost.cond_branch
        (Ocondbr { cond; if_true = target if_true; if_false = target if_false })
  | Unreachable -> Ounreachable fname

(* Slots a fused op covers, its own included. *)
let span = function
  | Ogep_load _ | Oload_load _ | Oadd_store _ | Ostore_jmp _ | One_condbr _ -> 2
  | Oslt_condbr _ | Oeq_condbr _ -> 3
  | _ -> 1

(* Peephole pass: rewrite a run of ops that the dispatch loop would
   execute back to back as one fused op in the run's first slot, so a
   hot pair costs one dispatch.  The fused op does each half's work,
   tick and charge in order and continues [span] slots on; the slots it
   covers keep their ops, so the array still has one slot per
   instruction and no branch target moves.  A run never covers a block
   start, where a branch may land: a block start follows a terminator,
   and only a run's last op may be one.  Nor does it cover an [Oraise]:
   no pattern below matches one, so the [bad_write] after an
   instruction that writes outside the frame ends the run.  A pair that
   hands a result to its second half ([Ogep_load], [Oadd_store], the
   branches) requires the second half to read exactly that slot;
   [zero] is the slot of the constant 0, if the function has one. *)
let fuse code zero =
  let n = Array.length code in
  let pc = ref 0 in
  while !pc < n - 1 do
    let i = !pc in
    let op =
      match (code.(i), code.(i + 1)) with
      | (Oslt { dst; lhs; rhs } | Oeq { dst; lhs; rhs }), One ne
        when i + 2 < n && ne.lhs = dst && ne.rhs = zero -> (
          match (code.(i), code.(i + 2)) with
          | Oslt _, Ocondbr { cond; if_true; if_false } when cond = ne.dst ->
              Oslt_condbr { dst; lhs; rhs; ndst = ne.dst; if_true; if_false }
          | Oeq _, Ocondbr { cond; if_true; if_false } when cond = ne.dst ->
              Oeq_condbr { dst; lhs; rhs; ndst = ne.dst; if_true; if_false }
          | op, _ -> op)
      | Ogep { dst; base; offset; index; scale }, Oload l when l.addr = dst ->
          Ogep_load { dst; base; offset; index; scale; width = l.width; ldst = l.dst }
      | Oload { dst; width; addr }, Oload l ->
          Oload_load { dst; width; addr; dst2 = l.dst; width2 = l.width; addr2 = l.addr }
      | Oadd { dst; lhs; rhs }, Ostore s when s.value = dst ->
          Oadd_store { dst; lhs; rhs; width = s.width; addr = s.addr }
      | Ostore { width; value; addr }, Ojmp target ->
          Ostore_jmp { width; value; addr; target }
      | One { dst; lhs; rhs }, Ocondbr { cond; if_true; if_false } when cond = dst ->
          One_condbr { dst; lhs; rhs; if_true; if_false }
      | op, _ -> op
    in
    let k = span op in
    if k > 1 then code.(i) <- op;
    pc := i + k
  done

let compile_func g (f : Ir.Func.t) : bfunc =
  let nregs = max 1 (Ir.Func.reg_count f) in
  let fc =
    {
      g;
      nregs;
      consts = Hashtbl.create 16;
      nslots = nregs + 1;
      traps = [];
      ntraps = 0;
      trap = None;
    }
  in
  (* Layout: a prologue that fails the call if a parameter register lies
     outside the frame (the reference fails writing it, right after the
     arity check), blocks in order with their instructions' ops and one
     op per terminator, then a single trailing op shared by branches to
     labels that do not exist (Not_found, as Hashtbl.find in the
     reference's run_block). *)
  let prologue = not (List.for_all (fun (r, _) -> in_frame fc r) f.params) in
  let starts = Hashtbl.create 16 in
  let len =
    List.fold_left
      (fun off (b : Ir.Func.block) ->
        Hashtbl.replace starts b.label off;
        List.fold_left
          (fun off i -> if writes_outside fc i then off + 2 else off + 1)
          (off + 1) b.instrs)
      (Bool.to_int prologue) f.blocks
  in
  let target l = Option.value (Hashtbl.find_opt starts l) ~default:len in
  let code = Array.make (len + 1) filler in
  code.(len) <- missing_label;
  let pos = ref 0 in
  let emit op =
    code.(!pos) <- op;
    incr pos
  in
  if prologue then emit bad_write;
  List.iter
    (fun (b : Ir.Func.block) ->
      List.iter
        (fun i ->
          emit (compile_instr fc i);
          if writes_outside fc i then emit bad_write)
        b.instrs;
      emit (terminator fc target f.name b.term))
    f.blocks;
  fuse code
    (Option.value (Hashtbl.find_opt fc.consts 0L) ~default:min_int);
  let frame = Bytes.make (8 * fc.nslots) '\000' in
  Hashtbl.iter (fun v off -> Bytes.set_int64_ne frame off v) fc.consts;
  {
    fname = f.name;
    params = Array.of_list (List.map (fun (r, _) -> dst_slot fc r) f.params);
    frame;
    traps = Array.of_list (List.rev fc.traps);
    code;
  }

let compile (st : Machine.Exec.state) : program =
  let prog = st.prog in
  let func_index = Hashtbl.create 32 in
  List.iteri (fun i (f : Ir.Func.t) -> Hashtbl.replace func_index f.name i) prog.funcs;
  let ctx =
    {
      globals = st.globals;
      func_tokens = st.func_tokens;
      func_index;
      prog;
      intrinsic_slots = Hashtbl.create 8;
      slot_names = [];
      next_slot = 0;
    }
  in
  let funcs = Array.of_list (List.map (compile_func ctx) prog.funcs) in
  {
    funcs;
    index = func_index;
    intrinsic_names = Array.of_list (List.rev ctx.slot_names);
  }
