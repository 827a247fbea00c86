type slot = {
  reg : Ir.Instr.reg;
  ty : Ir.Ty.t;
  size : int;
  alignment : int;
  var_name : string;
}

type t = { func_name : string; static_slots : slot list; vla_count : int }

let discover (f : Ir.Func.t) =
  let static_slots = ref [] in
  let vla_count = ref 0 in
  let entry = Ir.Func.entry f in
  List.iter
    (fun i ->
      match i with
      | Ir.Instr.Alloca { dst; ty; count = None; name } ->
          static_slots :=
            {
              reg = dst;
              ty;
              size = Ir.Ty.size ty;
              alignment = Ir.Ty.alignment ty;
              var_name = name;
            }
            :: !static_slots
      | Ir.Instr.Alloca { count = Some _; _ } -> incr vla_count
      | _ -> ())
    entry.instrs;
  (* VLAs can appear outside the entry block (e.g. in a scope entered
     conditionally); count them everywhere. *)
  List.iter
    (fun (b : Ir.Func.block) ->
      if b != entry then
        List.iter
          (function Ir.Instr.Alloca { count = Some _; _ } -> incr vla_count | _ -> ())
          b.instrs)
    f.blocks;
  { func_name = f.name; static_slots = List.rev !static_slots; vla_count = !vla_count }

let meta t =
  Array.of_list (List.map (fun s -> (s.size, s.alignment)) t.static_slots)
