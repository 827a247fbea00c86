let pp_func fmt (f : Func.t) =
  let pp_param fmt (r, ty) = Format.fprintf fmt "%a %%r%d" Ty.pp ty r in
  let ret = match f.returns with Some ty -> Ty.to_string ty | None -> "void" in
  Format.fprintf fmt "define %s @%s(%a)" ret f.name
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_param)
    f.params;
  if f.attrs <> [] then
    Format.fprintf fmt " #[%s]" (String.concat "," f.attrs);
  Format.fprintf fmt " {@\n";
  List.iter
    (fun (b : Func.block) ->
      Format.fprintf fmt "%s:@\n" b.label;
      List.iter (fun i -> Format.fprintf fmt "  %a@\n" Instr.pp i) b.instrs;
      Format.fprintf fmt "  %a@\n" Instr.pp_terminator b.term)
    f.blocks;
  Format.fprintf fmt "}@\n"

let pp_global fmt (g : Prog.global) =
  Format.fprintf fmt "@%s = %s %a, init %d bytes@\n" g.gname
    (if g.gwritable then "global" else "constant")
    Ty.pp g.gty (String.length g.ginit)

let pp_prog fmt (p : Prog.t) =
  List.iter (fun e -> Format.fprintf fmt "declare @%s@\n" e) p.externs;
  List.iter (pp_global fmt) p.globals;
  List.iter (fun f -> Format.fprintf fmt "@\n%a" pp_func f) p.funcs

let prog_to_string p = Format.asprintf "%a" pp_prog p
