type t = {
  func : Func.t;
  mutable block : Func.block;
  mutable label_counter : int;
  terminated_blocks : (string, unit) Hashtbl.t;
}

let on func block =
  { func; block; label_counter = 0; terminated_blocks = Hashtbl.create 8 }

let create func = on func (Func.add_block func ~label:"entry")

let start_block t label =
  let b = Func.add_block t.func ~label in
  t.block <- b;
  b

let fresh_label t base =
  t.label_counter <- t.label_counter + 1;
  Printf.sprintf "%s.%d" base t.label_counter

let emit t i = t.block.instrs <- t.block.instrs @ [ i ]

let emit_def t mk =
  let dst = Func.fresh_reg t.func in
  emit t (mk dst);
  dst

let alloca t ?(name = "") ty =
  emit_def t (fun dst -> Instr.Alloca { dst; ty; count = None; name })

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

let intrinsic t ?(result = false) name args =
  call_like t ~result (fun dst -> Instr.Intrinsic { dst; name; args })

let set_term t term =
  if Hashtbl.mem t.terminated_blocks t.block.label then
    invalid_arg
      (Printf.sprintf "Ir.Builder: block %s already terminated" t.block.label);
  Hashtbl.add t.terminated_blocks t.block.label ();
  t.block.term <- term

let ret t v = set_term t (Instr.Ret v)
let br t label = set_term t (Instr.Br label)

let cond_br t cond ~if_true ~if_false =
  set_term t (Instr.Cond_br { cond; if_true; if_false })

let terminated t = Hashtbl.mem t.terminated_blocks t.block.label
