(* Tests for IR types, construction, verification and passes. *)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Ty *)

let test_scalar_sizes () =
  List.iter
    (fun (ty, size, align) ->
      check_int (Ir.Ty.to_string ty ^ " size") size (Ir.Ty.size ty);
      check_int (Ir.Ty.to_string ty ^ " align") align (Ir.Ty.alignment ty))
    [
      (Ir.Ty.I1, 1, 1); (Ir.Ty.I8, 1, 1); (Ir.Ty.I16, 2, 2); (Ir.Ty.I32, 4, 4);
      (Ir.Ty.I64, 8, 8); (Ir.Ty.Ptr, 8, 8);
    ]

let test_array_layout () =
  let t = Ir.Ty.Array (Ir.Ty.I32, 10) in
  check_int "size" 40 (Ir.Ty.size t);
  check_int "align" 4 (Ir.Ty.alignment t);
  check_int "nested" 80 (Ir.Ty.size (Ir.Ty.Array (t, 2)))

let test_struct_layout () =
  (* struct { char c; long l; short s; } -> c@0 pad l@8 s@16 pad -> 24 *)
  let t = Ir.Ty.Struct { name = "mix"; fields = [ Ir.Ty.I8; Ir.Ty.I64; Ir.Ty.I16 ] } in
  check_int "size" 24 (Ir.Ty.size t);
  check_int "align (max field)" 8 (Ir.Ty.alignment t);
  Alcotest.(check (list int)) "offsets" [ 0; 8; 16 ]
    (Ir.Ty.struct_field_offsets [ Ir.Ty.I8; Ir.Ty.I64; Ir.Ty.I16 ])

let test_struct_recursive_alignment () =
  (* paper §IV-A: aggregate alignment depends on the largest element,
     recursively *)
  let inner = Ir.Ty.Struct { name = "in"; fields = [ Ir.Ty.I16; Ir.Ty.I64 ] } in
  let outer = Ir.Ty.Struct { name = "out"; fields = [ Ir.Ty.I8; inner ] } in
  check_int "inner align" 8 (Ir.Ty.alignment inner);
  check_int "outer align" 8 (Ir.Ty.alignment outer);
  check_int "outer size" 24 (Ir.Ty.size outer)

let test_struct_trailing_padding () =
  let t = Ir.Ty.Struct { name = "pad"; fields = [ Ir.Ty.I64; Ir.Ty.I8 ] } in
  check_int "trailing pad to 16" 16 (Ir.Ty.size t)

let prop_size_positive_and_aligned =
  QCheck2.Test.make ~count:200 ~name:"array of struct size is n * elt"
    QCheck2.Gen.(int_range 1 20)
    (fun n ->
      let s = Ir.Ty.Struct { name = "s"; fields = [ Ir.Ty.I8; Ir.Ty.I32 ] } in
      Ir.Ty.size (Ir.Ty.Array (s, n)) = n * Ir.Ty.size s)

(* ------------------------------------------------------------------ *)
(* Builder + Verifier *)

let build_valid_func () =
  let f = Ir.Func.create ~name:"f" ~params:[ (0, Ir.Ty.I64) ] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let slot = Ir.Builder.alloca b ~name:"x" Ir.Ty.I64 in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Reg 0) ~addr:(Ir.Instr.Reg slot);
  let v = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg slot) in
  let r = Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Reg v) (Ir.Instr.Imm 1L) in
  Ir.Builder.ret b (Some (Ir.Instr.Reg r));
  f

let test_verifier_accepts_valid () =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_func prog (build_valid_func ());
  Alcotest.(check (list string)) "no errors" []
    (List.map (Format.asprintf "%a" Ir.Verifier.pp_error) (Ir.Verifier.verify prog))

let expect_errors name mk =
  let prog = Ir.Prog.create () in
  mk prog;
  match Ir.Verifier.verify prog with
  | [] -> Alcotest.failf "%s: expected verification errors" name
  | _ -> ()

let test_verifier_catches_use_before_def () =
  expect_errors "use before def" (fun prog ->
      let f = Ir.Func.create ~name:"f" ~params:[] ~returns:(Some Ir.Ty.I64) in
      let b = Ir.Builder.create f in
      let r2 = Ir.Func.fresh_reg f in
      let r = Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Reg r2) (Ir.Instr.Imm 1L) in
      Ir.Builder.ret b (Some (Ir.Instr.Reg r));
      Ir.Prog.add_func prog f)

let test_verifier_catches_unknown_label () =
  expect_errors "unknown label" (fun prog ->
      let f = Ir.Func.create ~name:"f" ~params:[] ~returns:None in
      let b = Ir.Builder.create f in
      Ir.Builder.br b "nowhere";
      Ir.Prog.add_func prog f)

let test_verifier_catches_unknown_callee () =
  expect_errors "unknown callee" (fun prog ->
      let f = Ir.Func.create ~name:"f" ~params:[] ~returns:None in
      let b = Ir.Builder.create f in
      ignore (Ir.Builder.call b "missing" []);
      Ir.Builder.ret b None;
      Ir.Prog.add_func prog f)

let test_verifier_catches_void_result_use () =
  expect_errors "void result" (fun prog ->
      let v = Ir.Func.create ~name:"v" ~params:[] ~returns:None in
      let bv = Ir.Builder.create v in
      Ir.Builder.ret bv None;
      Ir.Prog.add_func prog v;
      let f = Ir.Func.create ~name:"f" ~params:[] ~returns:None in
      let b = Ir.Builder.create f in
      ignore (Ir.Builder.call b ~result:true "v" []);
      Ir.Builder.ret b None;
      Ir.Prog.add_func prog f)

let test_verifier_catches_ret_mismatch () =
  expect_errors "ret mismatch" (fun prog ->
      let f = Ir.Func.create ~name:"f" ~params:[] ~returns:(Some Ir.Ty.I64) in
      let b = Ir.Builder.create f in
      Ir.Builder.ret b None;
      Ir.Prog.add_func prog f)

let test_verifier_catches_aggregate_load () =
  expect_errors "aggregate load" (fun prog ->
      let f = Ir.Func.create ~name:"f" ~params:[] ~returns:None in
      let b = Ir.Builder.create f in
      let a = Ir.Builder.alloca b (Ir.Ty.Array (Ir.Ty.I8, 4)) in
      ignore (Ir.Builder.load b (Ir.Ty.Array (Ir.Ty.I8, 4)) (Ir.Instr.Reg a));
      Ir.Builder.ret b None;
      Ir.Prog.add_func prog f)

let test_verifier_conditional_defs () =
  (* a register defined on only one path may not be used at the join *)
  expect_errors "conditional def" (fun prog ->
      let f = Ir.Func.create ~name:"f" ~params:[ (0, Ir.Ty.I64) ] ~returns:(Some Ir.Ty.I64) in
      let b = Ir.Builder.create f in
      Ir.Builder.cond_br b (Ir.Instr.Reg 0) ~if_true:"t" ~if_false:"j";
      let _ = Ir.Builder.start_block b "t" in
      let r = Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Reg 0) (Ir.Instr.Imm 1L) in
      Ir.Builder.br b "j";
      let _ = Ir.Builder.start_block b "j" in
      Ir.Builder.ret b (Some (Ir.Instr.Reg r));
      Ir.Prog.add_func prog f)

(* ------------------------------------------------------------------ *)
(* Cfg dominator tree (what the verifier's def-before-use and the
   validator's FID pairing now stand on) *)

let diamond_func () =
  (* entry -> {t, f} -> j : j's immediate dominator is the entry, not
     either branch arm *)
  let f =
    Ir.Func.create ~name:"d" ~params:[ (0, Ir.Ty.I64) ]
      ~returns:(Some Ir.Ty.I64)
  in
  let b = Ir.Builder.create f in
  Ir.Builder.cond_br b (Ir.Instr.Reg 0) ~if_true:"t" ~if_false:"f";
  let _ = Ir.Builder.start_block b "t" in
  Ir.Builder.br b "j";
  let _ = Ir.Builder.start_block b "f" in
  Ir.Builder.br b "j";
  let _ = Ir.Builder.start_block b "j" in
  Ir.Builder.ret b (Some (Ir.Instr.Reg 0));
  f

let test_cfg_diamond_idom () =
  let cfg = Ir.Cfg.of_func (diamond_func ()) in
  let idom = Ir.Cfg.idom cfg in
  let at label = Ir.Cfg.index_of cfg label in
  check_int "entry is its own idom" (at "entry") idom.(at "entry");
  check_int "t's idom is entry" (at "entry") idom.(at "t");
  check_int "f's idom is entry" (at "entry") idom.(at "f");
  check_int "join's idom skips the arms" (at "entry") idom.(at "j");
  Alcotest.(check bool) "entry dominates join" true
    (Ir.Cfg.dominates ~idom (at "entry") (at "j"));
  Alcotest.(check bool) "arm does not dominate join" false
    (Ir.Cfg.dominates ~idom (at "t") (at "j"));
  Alcotest.(check bool) "dominance is reflexive" true
    (Ir.Cfg.dominates ~idom (at "j") (at "j"))

let test_cfg_loop_idom () =
  (* entry -> head -> {body -> head, exit}: the back edge must not
     disturb head's dominance over body and exit *)
  let f = Ir.Func.create ~name:"l" ~params:[ (0, Ir.Ty.I64) ] ~returns:None in
  let b = Ir.Builder.create f in
  Ir.Builder.br b "head";
  let _ = Ir.Builder.start_block b "head" in
  Ir.Builder.cond_br b (Ir.Instr.Reg 0) ~if_true:"body" ~if_false:"exit";
  let _ = Ir.Builder.start_block b "body" in
  Ir.Builder.br b "head";
  let _ = Ir.Builder.start_block b "exit" in
  Ir.Builder.ret b None;
  Ir.Prog.add_func (Ir.Prog.create ()) f;
  let cfg = Ir.Cfg.of_func f in
  let idom = Ir.Cfg.idom cfg in
  let at label = Ir.Cfg.index_of cfg label in
  check_int "head's idom is entry" (at "entry") idom.(at "head");
  check_int "body's idom is head" (at "head") idom.(at "body");
  check_int "exit's idom is head" (at "head") idom.(at "exit");
  Alcotest.(check bool) "body does not dominate exit" false
    (Ir.Cfg.dominates ~idom (at "body") (at "exit"))

let test_verifier_accepts_def_dominating_loop_use () =
  (* a def in the loop header dominates a use in the body even though
     the body also precedes the header in program order — the old
     block-order approximation rejected this shape *)
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"f" ~params:[ (0, Ir.Ty.I64) ] ~returns:None in
  let b = Ir.Builder.create f in
  Ir.Builder.br b "head";
  let _ = Ir.Builder.start_block b "head" in
  let v = Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Reg 0) (Ir.Instr.Imm 1L) in
  Ir.Builder.cond_br b (Ir.Instr.Reg 0) ~if_true:"body" ~if_false:"exit";
  let _ = Ir.Builder.start_block b "body" in
  let _ = Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Reg v) (Ir.Instr.Imm 2L) in
  Ir.Builder.br b "head";
  let _ = Ir.Builder.start_block b "exit" in
  Ir.Builder.ret b None;
  Ir.Prog.add_func prog f;
  Alcotest.(check (list string))
    "no errors" []
    (List.map
       (Format.asprintf "%a" Ir.Verifier.pp_error)
       (Ir.Verifier.verify prog))

let test_duplicate_function_rejected () =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_func prog (build_valid_func ());
  Alcotest.check_raises "dup" (Invalid_argument "Ir.Prog.add_func: duplicate function f")
    (fun () -> Ir.Prog.add_func prog (build_valid_func ()))

let test_global_oversized_init_rejected () =
  let prog = Ir.Prog.create () in
  Alcotest.check_raises "oversized"
    (Invalid_argument
       "Ir.Prog.add_global: init for g is 9 bytes, type holds 8") (fun () ->
      Ir.Prog.add_global prog ~name:"g" ~ty:Ir.Ty.I64 ~init:"123456789"
        ~writable:true ())

let test_printer_smoke () =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_extern prog "print_int";
  Ir.Prog.add_global prog ~name:"g" ~ty:Ir.Ty.I32 ~writable:false ();
  Ir.Prog.add_func prog (build_valid_func ());
  let s = Ir.Printer.prog_to_string prog in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("printer mentions " ^ needle) true
        (let n = String.length needle in
         let found = ref false in
         for i = 0 to String.length s - n do
           if String.sub s i n = needle then found := true
         done;
         !found))
    [ "define i64 @f"; "alloca i64"; "declare @print_int"; "@g = constant" ]

let test_pass_manager_runs_and_verifies () =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_func prog (build_valid_func ());
  let count = ref 0 in
  Ir.Pass.run
    [ Ir.Pass.Function_pass { name = "count"; run = (fun _ _ -> incr count) } ]
    prog;
  check_int "visited each function" 1 !count;
  (* a pass that breaks the IR must be reported *)
  let breaker =
    Ir.Pass.Module_pass
      {
        name = "breaker";
        run =
          (fun p ->
            let f = List.hd p.Ir.Prog.funcs in
            (Ir.Func.entry f).term <- Ir.Instr.Br "nonexistent");
      }
  in
  match Ir.Pass.run [ breaker ] prog with
  | () -> Alcotest.fail "expected pass verification failure"
  | exception Failure msg ->
      Alcotest.(check bool) "names the pass" true
        (String.length msg > 0
        && (let n = "breaker" in
            let found = ref false in
            for i = 0 to String.length msg - String.length n do
              if String.sub msg i (String.length n) = n then found := true
            done;
            !found))

let test_func_allocas () =
  let f = build_valid_func () in
  match Ir.Func.allocas f with
  | [ (_, Ir.Ty.I64, None, "x") ] -> ()
  | _ -> Alcotest.fail "expected a single i64 alloca named x"

(* ------------------------------------------------------------------ *)
(* Optimizer *)

let opt_count src =
  let prog = Minic.Driver.compile src in
  let before = Ir.Optpipe.instr_count prog in
  Ir.Optpipe.optimize prog;
  (before, Ir.Optpipe.instr_count prog, prog)

let test_constfold_folds_arithmetic () =
  let _, after, prog =
    opt_count "int main() { long x = (2 + 3) * 4 - 6; print_int(x); return 0; }"
  in
  (* the computation collapses to a single stored constant *)
  Alcotest.(check bool) "shrunk hard" true (after <= 8);
  let st = Machine.Exec.prepare prog in
  let _, stats = Machine.Exec.run st in
  Alcotest.(check string) "value" "14" stats.output

let test_constfold_branch_folding () =
  let _, _, prog =
    opt_count
      "int main() { long y = 0; if (2 > 1) y = 5; else y = 7; while (0) { y += 1; } print_int(y); return 0; }"
  in
  let main = Option.get (Ir.Prog.find_func prog "main") in
  Alcotest.(check int) "single straight-line block" 1 (List.length main.blocks);
  let st = Machine.Exec.prepare prog in
  let _, stats = Machine.Exec.run st in
  Alcotest.(check string) "value" "5" stats.output

let test_dce_removes_dead_locals () =
  let _, _, prog =
    opt_count
      "int main() { long dead1 = 1234; long dead2 = dead1 * 99; char junk[64]; junk[3] = 7; print_int(42); return 0; }"
  in
  let main = Option.get (Ir.Prog.find_func prog "main") in
  Alcotest.(check int) "all dead allocas gone" 0 (List.length (Ir.Func.allocas main))

let test_dce_keeps_effects () =
  let before, after, prog =
    opt_count
      "long g = 0; long bump() { g += 1; return g; } int main() { bump(); bump(); print_int(g); return 0; }"
  in
  Alcotest.(check bool) "did not grow" true (after <= before);
  let st = Machine.Exec.prepare prog in
  let _, stats = Machine.Exec.run st in
  Alcotest.(check string) "calls kept" "2" stats.output

let test_simplify_merges_blocks () =
  let _, _, prog =
    opt_count
      "int main() { long a = 1; { long b = 2; a += b; } { a *= 3; } print_int(a); return 0; }"
  in
  let main = Option.get (Ir.Prog.find_func prog "main") in
  Alcotest.(check int) "one block" 1 (List.length main.blocks)

let test_memfwd_promotes_scalars () =
  (* straight-line locals disappear entirely: store-to-load forwarding
     feeds copy-prop, DCE kills the stores and the allocas *)
  let _, after, prog =
    opt_count
      "int main() { long a = 6; long b = a * 7; print_int(b); return 0; }"
  in
  let main = Option.get (Ir.Prog.find_func prog "main") in
  Alcotest.(check int) "no allocas left" 0 (List.length (Ir.Func.allocas main));
  Alcotest.(check bool) "tiny" true (after <= 4);
  let st = Machine.Exec.prepare prog in
  let _, stats = Machine.Exec.run st in
  Alcotest.(check string) "value" "42" stats.output

let test_memfwd_respects_aliasing () =
  (* a write through a derived pointer with a dynamic index must kill
     forwarding for the whole array *)
  let _, _, prog =
    opt_count
      {|
int main() {
  long a[4];
  long i = input_byte();
  a[0] = 11;
  a[i] = 99;
  print_int(a[0]);
  return 0;
}
|}
  in
  let st = Machine.Exec.prepare prog in
  Machine.Exec.set_input st (Machine.Exec.input_string "\x02");
  let _, stats = Machine.Exec.run st in
  Alcotest.(check string) "a[0] intact when i = 2" "11" stats.output;
  let st2 = Machine.Exec.prepare prog in
  Machine.Exec.set_input st2 (Machine.Exec.input_string "\x00");
  let _, stats2 = Machine.Exec.run st2 in
  Alcotest.(check string) "a[0] overwritten via dynamic index" "99" stats2.output

let test_memfwd_clears_across_calls () =
  (* a call boundary must reload: callee mutates the global world *)
  let _, _, prog =
    opt_count
      {|
long g = 1;
long *gp = 0;
void poke() { *gp = 77; }
int main() {
  long x = 5;
  gp = &g;
  poke();
  print_int(g);
  print_int(x);
  return 0;
}
|}
  in
  let st = Machine.Exec.prepare prog in
  let _, stats = Machine.Exec.run st in
  Alcotest.(check string) "reloaded after call" "775" stats.output

let test_optimizer_interacts_with_smokestack () =
  (* fewer surviving allocas means a smaller P-BOX: the pipeline order
     the paper uses (optimize, then instrument) *)
  let src =
    "int main() { long dead = 9; long dead2 = dead + 1; char buf[16]; long live = 5; buf[0] = (char)live; print_int(live + buf[0]); return 0; }"
  in
  let plain = Minic.Driver.compile src in
  let opt = Minic.Driver.compile ~optimize:true src in
  let p1 = Smokestack.Harden.harden Smokestack.Config.default plain in
  let p2 = Smokestack.Harden.harden Smokestack.Config.default opt in
  Alcotest.(check bool) "optimized P-BOX is smaller" true
    (Smokestack.Harden.pbox_bytes p2 < Smokestack.Harden.pbox_bytes p1)

(* Differential check of the linear-time verifier against the old
   verifier kept in [Verifier_ref]: identical error lists, order
   included, over Progen programs, their hardened forms, and random
   mutations of both that break them in the ways the verifier looks
   for. *)
let mutate rng (p : Ir.Prog.t) =
  let pick l = List.nth l (Sutil.Simrng.int rng ~bound:(List.length l)) in
  let f = pick p.funcs in
  match f.blocks with
  | [] -> ()
  | entry :: _ -> (
      let b = pick f.blocks in
      let target () =
        match Sutil.Simrng.int rng ~bound:3 with
        | 0 -> entry.label
        | 1 -> (pick f.blocks).label
        | _ -> "nowhere"
      in
      match Sutil.Simrng.int rng ~bound:4 with
      | 0 ->
          (* drop an instruction *)
          let n = List.length b.instrs in
          if n > 0 then begin
            let k = Sutil.Simrng.int rng ~bound:n in
            b.instrs <- List.filteri (fun i _ -> i <> k) b.instrs
          end
      | 1 -> b.instrs <- List.rev b.instrs
      | 2 -> (
          (* retarget the terminator *)
          match b.term with
          | Ir.Instr.Cond_br c ->
              b.term <-
                (if Sutil.Simrng.bool rng then
                   Ir.Instr.Cond_br { c with if_true = target () }
                 else Ir.Instr.Cond_br { c with if_false = target () })
          | _ -> b.term <- Ir.Instr.Br (target ()))
      | _ ->
          (* drop a whole block: its labels dangle, its defs vanish *)
          f.blocks <- List.filter (fun b' -> b' != b) f.blocks)

(* The errors [p] verifies with, failing the property unless the
   reference model reports the same list. *)
let verifier_errors p =
  let ours = List.map (Format.asprintf "%a" Ir.Verifier.pp_error) (Ir.Verifier.verify p) in
  let reference =
    List.map (Format.asprintf "%a" Verifier_ref.pp_error) (Verifier_ref.verify p)
  in
  if ours <> reference then
    QCheck2.Test.fail_reportf "verifier disagrees:@.ours:@.%s@.reference:@.%s"
      (String.concat "\n" ours) (String.concat "\n" reference);
  ours

let prop_verifier_matches_reference =
  QCheck2.Test.make ~count:200 ~name:"verifier matches reference model"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let prog = Minic.Driver.compile (Minic.Progen.generate ~seed:(Int64.of_int seed)) in
      let hardened =
        (Smokestack.Harden.harden ~validate:false Smokestack.Config.default prog).prog
      in
      let rng = Sutil.Simrng.create ~seed:(Int64.of_int seed) in
      List.iter
        (fun base ->
          if verifier_errors base <> [] then
            QCheck2.Test.fail_report "unmutated program has verifier errors";
          for _ = 1 to 10 do
            let m = Ir.Prog.copy base in
            for _ = 0 to Sutil.Simrng.int rng ~bound:3 do
              mutate rng m
            done;
            ignore (verifier_errors m)
          done)
        [ prog; hardened ];
      true)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ir"
    [
      ( "ty",
        [
          Alcotest.test_case "scalar sizes" `Quick test_scalar_sizes;
          Alcotest.test_case "array layout" `Quick test_array_layout;
          Alcotest.test_case "struct layout" `Quick test_struct_layout;
          Alcotest.test_case "recursive alignment" `Quick
            test_struct_recursive_alignment;
          Alcotest.test_case "trailing padding" `Quick test_struct_trailing_padding;
          qt prop_size_positive_and_aligned;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts valid" `Quick test_verifier_accepts_valid;
          Alcotest.test_case "use before def" `Quick test_verifier_catches_use_before_def;
          Alcotest.test_case "unknown label" `Quick test_verifier_catches_unknown_label;
          Alcotest.test_case "unknown callee" `Quick test_verifier_catches_unknown_callee;
          Alcotest.test_case "void result use" `Quick test_verifier_catches_void_result_use;
          Alcotest.test_case "ret mismatch" `Quick test_verifier_catches_ret_mismatch;
          Alcotest.test_case "aggregate load" `Quick test_verifier_catches_aggregate_load;
          Alcotest.test_case "conditional defs" `Quick test_verifier_conditional_defs;
          Alcotest.test_case "loop-header def dominates body use" `Quick
            test_verifier_accepts_def_dominating_loop_use;
          Alcotest.test_case "diamond idom" `Quick test_cfg_diamond_idom;
          Alcotest.test_case "loop idom" `Quick test_cfg_loop_idom;
          qt prop_verifier_matches_reference;
        ] );
      ( "opt",
        [
          Alcotest.test_case "constfold arithmetic" `Quick test_constfold_folds_arithmetic;
          Alcotest.test_case "constfold branches" `Quick test_constfold_branch_folding;
          Alcotest.test_case "dce dead locals" `Quick test_dce_removes_dead_locals;
          Alcotest.test_case "dce keeps effects" `Quick test_dce_keeps_effects;
          Alcotest.test_case "simplify merges" `Quick test_simplify_merges_blocks;
          Alcotest.test_case "memfwd promotes scalars" `Quick test_memfwd_promotes_scalars;
          Alcotest.test_case "memfwd respects aliasing" `Quick test_memfwd_respects_aliasing;
          Alcotest.test_case "memfwd clears at calls" `Quick test_memfwd_clears_across_calls;
          Alcotest.test_case "smaller P-BOX after opt" `Quick
            test_optimizer_interacts_with_smokestack;
        ] );
      ( "prog",
        [
          Alcotest.test_case "duplicate function" `Quick test_duplicate_function_rejected;
          Alcotest.test_case "oversized init" `Quick test_global_oversized_init_rejected;
          Alcotest.test_case "printer" `Quick test_printer_smoke;
          Alcotest.test_case "pass manager" `Quick test_pass_manager_runs_and_verifies;
          Alcotest.test_case "allocas accessor" `Quick test_func_allocas;
        ] );
    ]
