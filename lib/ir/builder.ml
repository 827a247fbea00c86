(* Appending to an immutable list copies it, so instructions collect
   newest-first in [pending] and reach [block.instrs] in one append per
   block: when the block is terminated or the builder moves on to a new
   one.  [entry_pending] does the same for allocas added to the entry
   block while the insertion point is elsewhere. *)
type t = {
  func : Func.t;
  entry : Func.block;
  mutable block : Func.block;
  mutable pending : Instr.t list;
  mutable entry_pending : Instr.t list;
  mutable terminated : bool;
  mutable label_counter : int;
}

let create func =
  let entry = Func.add_block func ~label:"entry" in
  {
    func;
    entry;
    block = entry;
    pending = [];
    entry_pending = [];
    terminated = false;
    label_counter = 0;
  }

let publish t =
  (match t.pending with
  | [] -> ()
  | rev ->
      t.block.instrs <- t.block.instrs @ List.rev rev;
      t.pending <- []);
  match t.entry_pending with
  | [] -> ()
  | rev ->
      t.entry.instrs <- t.entry.instrs @ List.rev rev;
      t.entry_pending <- []

let start_block t label =
  publish t;
  let b = Func.add_block t.func ~label in
  t.block <- b;
  t.terminated <- false;
  b

let fresh_label t base =
  t.label_counter <- t.label_counter + 1;
  Printf.sprintf "%s.%d" base t.label_counter

let emit t i = t.pending <- i :: t.pending

let emit_def t mk =
  let dst = Func.fresh_reg t.func in
  emit t (mk dst);
  dst

let alloca t ?(name = "") ty =
  emit_def t (fun dst -> Instr.Alloca { dst; ty; count = None; name })

let alloca_entry t ?(name = "") ty =
  let dst = Func.fresh_reg t.func in
  let i = Instr.Alloca { dst; ty; count = None; name } in
  if t.block == t.entry then emit t i else t.entry_pending <- i :: t.entry_pending;
  dst

let alloca_vla t ?(name = "") ty ~count =
  emit_def t (fun dst -> Instr.Alloca { dst; ty; count = Some count; name })

let load t ty addr = emit_def t (fun dst -> Instr.Load { dst; ty; addr })
let store t ty ~value ~addr = emit t (Instr.Store { ty; value; addr })

let gep t base ~offset =
  emit_def t (fun dst -> Instr.Gep { dst; base; offset; index = None })

let gep_idx t base ~offset ~index ~scale =
  emit_def t (fun dst -> Instr.Gep { dst; base; offset; index = Some (index, scale) })

let binop t op lhs rhs = emit_def t (fun dst -> Instr.Binop { dst; op; lhs; rhs })
let icmp t op lhs rhs = emit_def t (fun dst -> Instr.Icmp { dst; op; lhs; rhs })

let select t cond if_true if_false =
  emit_def t (fun dst -> Instr.Select { dst; cond; if_true; if_false })

let sext t ~width value = emit_def t (fun dst -> Instr.Sext { dst; width; value })
let trunc t ~width value = emit_def t (fun dst -> Instr.Trunc { dst; width; value })

let call_like t ~result mk =
  if result then begin
    let dst = Func.fresh_reg t.func in
    emit t (mk (Some dst));
    Some dst
  end
  else begin
    emit t (mk None);
    None
  end

let call t ?(result = false) callee args =
  call_like t ~result (fun dst -> Instr.Call { dst; callee; args })

let call_ind t ?(result = false) callee args =
  call_like t ~result (fun dst -> Instr.Call_ind { dst; callee; args })

let intrinsic t name args = emit t (Instr.Intrinsic { dst = None; name; args })

let set_term t term =
  if t.terminated then
    invalid_arg
      (Printf.sprintf "Ir.Builder: block %s already terminated" t.block.label);
  t.terminated <- true;
  t.block.term <- term;
  publish t

let ret t v = set_term t (Instr.Ret v)
let br t label = set_term t (Instr.Br label)

let cond_br t cond ~if_true ~if_false =
  set_term t (Instr.Cond_br { cond; if_true; if_false })

let terminated t = t.terminated
