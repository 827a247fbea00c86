let effective_metas (config : Config.t) (slots : Slots.t) =
  let static = Slots.meta slots in
  if config.fid_checks && (Array.length static > 0 || slots.vla_count > 0) then
    Array.append static [| (8, 8) |]
  else static

let excluded (config : Config.t) name = List.mem name config.exclude

let collect_metas config (prog : Ir.Prog.t) =
  List.filter_map
    (fun f ->
      if excluded config f.Ir.Func.name then None
      else Some (f.Ir.Func.name, effective_metas config (Slots.discover f)))
    prog.funcs

(* Check that no fixed-size alloca hides outside the entry block: the
   pass only rewrites entry allocas, so anything else would silently
   stay un-randomized. *)
let check_alloca_placement (f : Ir.Func.t) =
  match f.blocks with
  | [] -> ()
  | _entry :: rest ->
      List.iter
        (fun (b : Ir.Func.block) ->
          List.iter
            (function
              | Ir.Instr.Alloca { count = None; name; _ } ->
                  invalid_arg
                    (Printf.sprintf
                       "Smokestack.Instrument: fixed-size alloca %S outside the \
                        entry block of %s"
                       name f.name)
              | _ -> ())
            b.instrs)
        rest

(* Insert a randomly-sized dummy alloca before every VLA (§III-D.1). *)
let pad_vlas (f : Ir.Func.t) =
  List.iter
    (fun (b : Ir.Func.block) ->
      b.instrs <-
        List.concat_map
          (fun i ->
            match i with
            | Ir.Instr.Alloca { count = Some _; _ } ->
                let r_pad = Ir.Func.fresh_reg f in
                [
                  Ir.Instr.Intrinsic
                    { dst = Some r_pad; name = Abi.intr_pad; args = [] };
                  Ir.Instr.Alloca
                    {
                      dst = Ir.Func.fresh_reg f;
                      ty = Ir.Ty.I8;
                      count = Some (Ir.Instr.Reg r_pad);
                      name = "__ss_vla_pad";
                    };
                  i;
                ]
            | _ -> [ i ])
          b.instrs)
    f.blocks

(* Draw-preserving elision (selective hardening, DESIGN.md §12): the
   function keeps its original fixed-layout allocas — the analysis
   proved no slot can overflow or escape, so permuting them defends
   nothing — but the prologue still performs the one randomness draw
   full hardening would have made.  That keeps the generator stream
   (and the rekey/redraw counters behind it) bit-identical to full
   hardening, which is what lets Harness.Crossval assert attack
   outcomes are unchanged rather than merely similar. *)
let elide_function (config : Config.t) (f : Ir.Func.t) =
  let slots = Slots.discover f in
  if slots.vla_count > 0 then
    invalid_arg
      (Printf.sprintf
         "Smokestack.Instrument: elided function %s has a VLA (the elision \
          oracle must reject VLA functions: their pad draws cannot be \
          preserved without instrumentation)"
         f.name);
  if Array.length (effective_metas config slots) > 0 then begin
    let entry = Ir.Func.entry f in
    let r = Ir.Func.fresh_reg f in
    entry.instrs <-
      Ir.Instr.Intrinsic { dst = Some r; name = Abi.intr_rand; args = [] }
      :: entry.instrs;
    Ir.Func.add_attr f Abi.smokestack_elided_attr
  end

let instrument_function ?(elided = []) (config : Config.t) ~(pbox : Pbox.t)
    (f : Ir.Func.t) =
  check_alloca_placement f;
  if excluded config f.name then ()
  else if List.mem f.name elided then elide_function config f
  else
  let slots = Slots.discover f in
  let metas = effective_metas config slots in
  if Array.length metas = 0 && slots.vla_count = 0 then ()
  else begin
    if config.vla_padding then pad_vlas f;
    if Array.length metas = 0 then ()
    else begin
      let binding =
        match Pbox.binding pbox f.name with
        | Some b -> b
        | None ->
            invalid_arg
              (Printf.sprintf "Smokestack.Instrument: no P-BOX binding for %s"
                 f.name)
      in
      let entry = Ir.Func.entry f in
      let fresh () = Ir.Func.fresh_reg f in
      let prologue = ref [] in
      let emit i = prologue := i :: !prologue in
      let max_total = Pbox.max_total pbox binding in
      let r_total = fresh () in
      emit
        (Ir.Instr.Alloca
           {
             dst = r_total;
             ty = Ir.Ty.Array (Ir.Ty.I8, max_total);
             count = None;
             name = "__ss_total";
           });
      (* Destination registers in meta order: the original allocas',
         then (with FID checks) a fresh one for the FID slot. *)
      let fid_slot_reg = if config.fid_checks then Some (fresh ()) else None in
      let all_dsts =
        List.map (fun (s : Slots.slot) -> s.reg) slots.static_slots
        @ Option.to_list fid_slot_reg
      in
      (* addr-of-column -> load u32 -> slice gep, one triple per slot *)
      let emit_slot_gep ~column_addr_of dst i =
        let r_col = column_addr_of i in
        let r_off = fresh () in
        emit (Ir.Instr.Load { dst = r_off; ty = Ir.Ty.I32; addr = Ir.Instr.Reg r_col });
        emit
          (Ir.Instr.Gep
             {
               dst;
               base = Ir.Instr.Reg r_total;
               offset = 0;
               index = Some (Ir.Instr.Reg r_off, 1);
             })
      in
      (match binding.mode with
      | Pbox.Exhaustive { entry_index; canon_of_orig; _ } ->
          let e = pbox.entries.(entry_index) in
          let stride = Pbox.row_stride e in
          let r_rand = fresh () in
          emit
            (Ir.Instr.Intrinsic
               { dst = Some r_rand; name = Abi.intr_rand; args = [] });
          let r_idx = fresh () in
          let op, rhs =
            if config.pow2_pbox then
              (Ir.Instr.And, Int64.of_int (e.rows_materialized - 1))
            else (Ir.Instr.Urem, Int64.of_int e.rows_materialized)
          in
          emit
            (Ir.Instr.Binop
               { dst = r_idx; op; lhs = Ir.Instr.Reg r_rand; rhs = Ir.Instr.Imm rhs });
          let r_row = fresh () in
          emit
            (Ir.Instr.Gep
               {
                 dst = r_row;
                 base = Ir.Instr.Global Abi.pbox_global;
                 offset = e.byte_offset;
                 index = Some (Ir.Instr.Reg r_idx, stride);
               });
          List.iteri
            (fun i dst ->
              emit_slot_gep dst i ~column_addr_of:(fun i ->
                  let r_col = fresh () in
                  emit
                    (Ir.Instr.Gep
                       {
                         dst = r_col;
                         base = Ir.Instr.Reg r_row;
                         offset = 4 * canon_of_orig.(i);
                         index = None;
                       });
                  r_col))
            all_dsts
      | Pbox.Dynamic { dyn_id } ->
          emit
            (Ir.Instr.Intrinsic
               {
                 dst = None;
                 name = Abi.intr_layout_dynamic;
                 args = [ Ir.Instr.Imm (Int64.of_int dyn_id); Ir.Instr.Reg r_total ];
               });
          List.iteri
            (fun i dst ->
              emit_slot_gep dst i ~column_addr_of:(fun i ->
                  let r_col = fresh () in
                  emit
                    (Ir.Instr.Gep
                       {
                         dst = r_col;
                         base = Ir.Instr.Reg r_total;
                         offset = 4 * i;
                         index = None;
                       });
                  r_col))
            all_dsts);
      (* FID prologue: slot <- fid XOR key (§III-D.2). *)
      (match fid_slot_reg with
      | Some slot ->
          let fid = Abi.fid_const f.name in
          let r_key = fresh () in
          emit
            (Ir.Instr.Intrinsic
               { dst = Some r_key; name = Abi.intr_fid_key; args = [] });
          let r_x = fresh () in
          emit
            (Ir.Instr.Binop
               {
                 dst = r_x;
                 op = Ir.Instr.Xor;
                 lhs = Ir.Instr.Imm fid;
                 rhs = Ir.Instr.Reg r_key;
               });
          emit
            (Ir.Instr.Store
               { ty = Ir.Ty.I64; value = Ir.Instr.Reg r_x; addr = Ir.Instr.Reg slot })
      | None -> ());
      (* Rebuild the entry block: prologue, then the original
         instructions minus the replaced allocas. *)
      let body =
        List.filter
          (function Ir.Instr.Alloca { count = None; _ } -> false | _ -> true)
          entry.instrs
      in
      entry.instrs <- List.rev !prologue @ body;
      (* FID epilogue before every return. *)
      (match fid_slot_reg with
      | Some slot ->
          let fid = Abi.fid_const f.name in
          List.iter
            (fun (b : Ir.Func.block) ->
              match b.term with
              | Ir.Instr.Ret _ ->
                  let r_v = fresh () in
                  let r_k = fresh () in
                  let r_y = fresh () in
                  b.instrs <-
                    b.instrs
                    @ [
                        Ir.Instr.Load
                          { dst = r_v; ty = Ir.Ty.I64; addr = Ir.Instr.Reg slot };
                        Ir.Instr.Intrinsic
                          { dst = Some r_k; name = Abi.intr_fid_key; args = [] };
                        Ir.Instr.Binop
                          {
                            dst = r_y;
                            op = Ir.Instr.Xor;
                            lhs = Ir.Instr.Reg r_v;
                            rhs = Ir.Instr.Reg r_k;
                          };
                        Ir.Instr.Intrinsic
                          {
                            dst = None;
                            name = Abi.intr_fid_assert;
                            args = [ Ir.Instr.Reg r_y; Ir.Instr.Imm fid ];
                          };
                      ]
              | _ -> ())
            f.blocks
      | None -> ());
      Ir.Func.add_attr f Abi.smokestack_attr
    end
  end

let add_runtime_globals ~(pbox : Pbox.t) (prog : Ir.Prog.t) =
  if Option.is_none (Ir.Prog.find_global prog Abi.pbox_global) then
    Ir.Prog.add_global prog ~name:Abi.pbox_global
      ~ty:(Ir.Ty.Array (Ir.Ty.I8, max 4 (Pbox.blob_bytes pbox)))
      ~init:pbox.blob ~writable:false ();
  if Option.is_none (Ir.Prog.find_global prog Abi.prng_state_global) then
    Ir.Prog.add_global prog ~name:Abi.prng_state_global ~ty:Ir.Ty.I64
      ~writable:true ()

let run ?elided config ~pbox (prog : Ir.Prog.t) =
  add_runtime_globals ~pbox prog;
  List.iter (instrument_function ?elided config ~pbox) prog.funcs

let pass ?elided config ~pbox =
  Ir.Pass.Module_pass
    { name = "smokestack-instrument"; run = run ?elided config ~pbox }
