(* Tests for the prior-work defense baselines. *)

let sample =
  {|
long work(long a) {
  char buf[32];
  long x = 1;
  long y = 2;
  strcpy(buf, "abcdef");
  return a + x + y + buf[2];
}
int main() { print_int(work(5)); return 0; }
|}

let compile () = Minic.Driver.compile sample

let run_applied (applied : Defenses.Defense.applied) seed =
  let st = applied.fresh_state (Crypto.Entropy.create ~seed) in
  Machine.Exec.run st

let baseline_output () =
  let st = Machine.Exec.prepare (compile ()) in
  (snd (Machine.Exec.run st)).output

let test_all_defenses_preserve_behaviour () =
  let prog = compile () in
  let expected = baseline_output () in
  List.iter
    (fun d ->
      let applied = Defenses.Defense.apply ~seed:11L d prog in
      let outcome, stats = run_applied applied 21L in
      Alcotest.(check bool)
        (Defenses.Defense.name d ^ " exits cleanly")
        true
        (outcome = Machine.Exec.Exit 0L);
      Alcotest.(check string) (Defenses.Defense.name d ^ " output") expected stats.output)
    Defenses.Defense.all

let test_apply_does_not_mutate_input () =
  let prog = compile () in
  let before = Ir.Printer.prog_to_string prog in
  List.iter
    (fun d -> ignore (Defenses.Defense.apply ~seed:1L d prog))
    Defenses.Defense.all;
  Alcotest.(check string) "input untouched" before (Ir.Printer.prog_to_string prog)

(* ------------------------------------------------------------------ *)
(* Forrest padding *)

let frame_of prog name =
  Attacks.Layout.frame_of_func (Option.get (Ir.Prog.find_func prog name))

let test_forrest_pads_only_large_frames () =
  let prog = compile () in
  let applied = Defenses.Defense.apply ~seed:5L Defenses.Defense.Forrest_pad prog in
  (* work has a 32-byte buffer -> padded; main has only a long -> not *)
  let work = frame_of applied.prog "work" in
  let main = frame_of applied.prog "main" in
  Alcotest.(check bool) "work padded" true
    (Option.is_some (Attacks.Layout.var_offset work "__pad"));
  Alcotest.(check bool) "main not padded" false
    (Option.is_some (Attacks.Layout.var_offset main "__pad"))

let test_forrest_pad_sizes_legal () =
  (* across builds, pads come only from {8,16,...,64} *)
  let prog = compile () in
  let sizes = Hashtbl.create 8 in
  for seed = 0 to 40 do
    let applied =
      Defenses.Defense.apply ~seed:(Int64.of_int seed) Defenses.Defense.Forrest_pad prog
    in
    let f = Option.get (Ir.Prog.find_func applied.prog "work") in
    Ir.Func.iter_instrs f (fun i ->
        match i with
        | Ir.Instr.Alloca { ty; name = "__pad"; _ } ->
            Hashtbl.replace sizes (Ir.Ty.size ty) ()
        | _ -> ())
  done;
  Hashtbl.iter
    (fun size () ->
      Alcotest.(check bool)
        (Printf.sprintf "pad %d legal" size)
        true
        (Array.exists (Int.equal size) Defenses.Forrest.pad_choices))
    sizes;
  Alcotest.(check bool) "several sizes drawn" true (Hashtbl.length sizes >= 3)

(* ------------------------------------------------------------------ *)
(* Static permutation *)

let test_static_perm_changes_layout_per_build () =
  let prog = compile () in
  let layouts =
    List.init 10 (fun seed ->
        let applied =
          Defenses.Defense.apply ~seed:(Int64.of_int seed) Defenses.Defense.Static_perm
            prog
        in
        (frame_of applied.prog "work").vars)
  in
  Alcotest.(check bool) "multiple distinct layouts" true
    (List.length (List.sort_uniq compare layouts) > 3)

let test_static_perm_is_fixed_within_build () =
  let prog = compile () in
  let applied = Defenses.Defense.apply ~seed:7L Defenses.Defense.Static_perm prog in
  let l1 = (frame_of applied.prog "work").vars in
  (* two fresh states of the SAME build share the layout: run twice and
     compare live addresses of buf via the overflow-free probe *)
  let l2 = (frame_of applied.prog "work").vars in
  Alcotest.(check bool) "same layout" true (l1 = l2)

(* ------------------------------------------------------------------ *)
(* Canary *)

let test_canary_detects_linear_cross_frame_overflow () =
  let src =
    {|
void smash() {
  char buf[32];
  long i = 0;
  while (i < 120) { buf[i] = 65; i += 1; }
}
int main() {
  char cushion[256];
  cushion[0] = 0;
  smash();
  return 0;
}
|}
  in
  let prog = Minic.Driver.compile src in
  let applied = Defenses.Defense.apply Defenses.Defense.Canary prog in
  match run_applied applied 3L with
  | Machine.Exec.Detected { reason = "stack canary clobbered"; _ }, _ -> ()
  | o, _ -> Alcotest.failf "expected canary, got %s" (Machine.Exec.outcome_to_string o)

let test_canary_misses_short_stopping_overflow () =
  (* a DOP-style overflow that stays below the guard is invisible *)
  let src =
    {|
void smash() {
  long victim = 0;
  char buf[32];
  long i = 0;
  while (i < 36) { buf[i] = 65; i += 1; }
  if (victim != 0) print_str("corrupted-under-the-guard");
}
int main() { smash(); return 0; }
|}
  in
  let prog = Minic.Driver.compile src in
  let applied = Defenses.Defense.apply Defenses.Defense.Canary prog in
  let outcome, stats = run_applied applied 3L in
  Alcotest.(check bool) "no detection" true (outcome = Machine.Exec.Exit 0L);
  Alcotest.(check string) "victim corrupted silently" "corrupted-under-the-guard"
    stats.output

(* ------------------------------------------------------------------ *)
(* Stack base randomization *)

let test_stack_base_shifts_per_run () =
  let prog = compile () in
  let applied = Defenses.Defense.apply Defenses.Defense.Stack_base prog in
  let sp_of seed =
    let st = applied.fresh_state (Crypto.Entropy.create ~seed) in
    st.Machine.Exec.sp
  in
  let sps = List.init 12 (fun i -> sp_of (Int64.of_int i)) in
  Alcotest.(check bool) "several distinct bases" true
    (List.length (List.sort_uniq compare sps) > 6);
  List.iter
    (fun sp ->
      Alcotest.(check bool) "16-aligned" true (sp mod 16 = 0);
      Alcotest.(check bool) "within pad budget" true
        (Machine.Exec.default_stack_top - sp < Defenses.Stack_base.max_pad))
    sps

let test_stack_base_preserves_relative_layout () =
  (* the defining weakness: relative distances unchanged *)
  let src =
    {|
int main() {
  long a = 0;
  long b = 0;
  print_int((long)&a - (long)&b);
  return 0;
}
|}
  in
  let prog = Minic.Driver.compile src in
  let applied = Defenses.Defense.apply Defenses.Defense.Stack_base prog in
  let _, s1 = run_applied applied 1L in
  let _, s2 = run_applied applied 2L in
  Alcotest.(check string) "same relative distance" s1.output s2.output

let () =
  Alcotest.run "defenses"
    [
      ( "generic",
        [
          Alcotest.test_case "behaviour preserved" `Quick
            test_all_defenses_preserve_behaviour;
          Alcotest.test_case "input not mutated" `Quick test_apply_does_not_mutate_input;
        ] );
      ( "forrest",
        [
          Alcotest.test_case "pads large frames only" `Quick
            test_forrest_pads_only_large_frames;
          Alcotest.test_case "pad sizes legal" `Quick test_forrest_pad_sizes_legal;
        ] );
      ( "static-perm",
        [
          Alcotest.test_case "varies per build" `Quick
            test_static_perm_changes_layout_per_build;
          Alcotest.test_case "fixed within build" `Quick
            test_static_perm_is_fixed_within_build;
        ] );
      ( "canary",
        [
          Alcotest.test_case "detects linear overflow" `Quick
            test_canary_detects_linear_cross_frame_overflow;
          Alcotest.test_case "misses short-stopping overflow" `Quick
            test_canary_misses_short_stopping_overflow;
        ] );
      ( "stack-base",
        [
          Alcotest.test_case "shifts per run" `Quick test_stack_base_shifts_per_run;
          Alcotest.test_case "relative layout preserved" `Quick
            test_stack_base_preserves_relative_layout;
        ] );
    ]
