let passes = [ Constfold.pass; Memfwd.pass; Dce.pass; Simplify_cfg.pass ]

let instr_count (prog : Prog.t) =
  List.fold_left
    (fun acc (f : Func.t) ->
      List.fold_left
        (fun acc (b : Func.block) -> acc + List.length b.instrs + 1)
        acc f.blocks)
    0 prog.funcs

let optimize prog =
  let rec go round prev =
    if round < 8 then begin
      Pass.run passes prog;
      let now = instr_count prog in
      if now < prev then go (round + 1) now
    end
  in
  go 0 (instr_count prog)
