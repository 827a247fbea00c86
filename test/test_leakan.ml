(* Tests for the interprocedural layout-leak analyzer (lib/analysis
   Leakan), the per-channel laundering discipline in Funcan it relies
   on, the leak-shaped Progen corpus, the leak rows in the Report JSON,
   and the leak-guided attack path (Dopc.Plan.leak_guides +
   Dopc.Exec.brute_guided, cross-checked by Harness.Leakcheck). *)

let full_config = Defenses.Defense.Smokestack Smokestack.Config.default

let find_slot (fa : Analysis.Funcan.t) name =
  match
    List.find_opt (fun (s : Analysis.Funcan.slot) -> s.name = name) fa.slots
  with
  | Some s -> s
  | None -> Alcotest.failf "%s: no slot %s" fa.fname name

let analyze_src src =
  let prog = Minic.Driver.compile src in
  (prog, Analysis.Leakan.analyze prog)

(* output-visible rows: the E19 predicate *)
let visible (lk : Analysis.Leakan.t) =
  List.filter
    (fun (l : Analysis.Leakan.leak) ->
      l.bits > 0.
      &&
      match l.sink with
      | Analysis.Leakan.Output _ | Analysis.Leakan.Oracle_branch -> true
      | _ -> false)
    lk.leaks

(* ------------------------------------------------------------------ *)
(* Funcan per-channel laundering (the discipline Leakan mirrors) *)

(* i indexes a table; the *loaded* table entry feeds the branch.  The
   dereference launders the value channel, so i must get Mem_addr from
   the gep but NOT Branch_feed from the laundered load. *)
let laundering_func ~direct_compare =
  let f = Ir.Func.create ~name:"f" ~params:[] ~returns:None in
  let b = Ir.Builder.create f in
  let tbl = Ir.Builder.alloca b ~name:"tbl" (Ir.Ty.Array (Ir.Ty.I64, 8)) in
  let i = Ir.Builder.alloca b ~name:"i" Ir.Ty.I64 in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Imm 3L) ~addr:(Ir.Instr.Reg i);
  let iv = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg i) in
  let masked =
    Ir.Builder.binop b Ir.Instr.And (Ir.Instr.Reg iv) (Ir.Instr.Imm 7L)
  in
  let addr =
    Ir.Builder.gep_idx b (Ir.Instr.Reg tbl) ~offset:0
      ~index:(Ir.Instr.Reg masked) ~scale:8
  in
  let entry = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg addr) in
  let c =
    if direct_compare then
      (* per-channel suppression: the same slot compared *directly*
         still earns Branch_feed *)
      Ir.Builder.icmp b Ir.Instr.Slt (Ir.Instr.Reg iv) (Ir.Instr.Imm 4L)
    else Ir.Builder.icmp b Ir.Instr.Slt (Ir.Instr.Reg entry) (Ir.Instr.Imm 4L)
  in
  Ir.Builder.cond_br b (Ir.Instr.Reg c) ~if_true:"yes" ~if_false:"no";
  let _ = Ir.Builder.start_block b "yes" in
  Ir.Builder.ret b None;
  let _ = Ir.Builder.start_block b "no" in
  Ir.Builder.ret b None;
  f

let roles_of ~direct_compare name =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_func prog (laundering_func ~direct_compare);
  let fa = Analysis.Funcan.analyze_func prog (List.hd prog.Ir.Prog.funcs) in
  (find_slot fa name).roles

let test_gep_load_launders () =
  let roles = roles_of ~direct_compare:false "i" in
  Alcotest.(check bool) "i reaches an address" true
    (List.mem Analysis.Funcan.Mem_addr roles);
  Alcotest.(check bool) "laundered load does not feed the branch" false
    (List.mem Analysis.Funcan.Branch_feed roles)

let test_direct_compare_keeps_branch_feed () =
  let roles = roles_of ~direct_compare:true "i" in
  Alcotest.(check bool) "Mem_addr kept" true
    (List.mem Analysis.Funcan.Mem_addr roles);
  Alcotest.(check bool) "direct compare still Branch_feed" true
    (List.mem Analysis.Funcan.Branch_feed roles)

(* channel survives a memory round-trip: an address-channel register
   stored to a scratch slot and reloaded still grants only Mem_addr,
   while a value-channel round-trip still grants Branch_feed *)
let roundtrip_func ~address_channel =
  let f = Ir.Func.create ~name:"f" ~params:[] ~returns:None in
  let b = Ir.Builder.create f in
  let tbl = Ir.Builder.alloca b ~name:"tbl" (Ir.Ty.Array (Ir.Ty.I64, 8)) in
  let i = Ir.Builder.alloca b ~name:"i" Ir.Ty.I64 in
  let tmp = Ir.Builder.alloca b ~name:"tmp" Ir.Ty.I64 in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Imm 3L) ~addr:(Ir.Instr.Reg i);
  let iv = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg i) in
  let carried =
    if address_channel then
      Ir.Builder.gep_idx b (Ir.Instr.Reg tbl) ~offset:0 ~index:(Ir.Instr.Reg iv)
        ~scale:8
    else Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Reg iv) (Ir.Instr.Imm 1L)
  in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Reg carried)
    ~addr:(Ir.Instr.Reg tmp);
  let back = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg tmp) in
  let c =
    Ir.Builder.icmp b Ir.Instr.Slt (Ir.Instr.Reg back) (Ir.Instr.Imm 100L)
  in
  Ir.Builder.cond_br b (Ir.Instr.Reg c) ~if_true:"yes" ~if_false:"no";
  let _ = Ir.Builder.start_block b "yes" in
  Ir.Builder.ret b None;
  let _ = Ir.Builder.start_block b "no" in
  Ir.Builder.ret b None;
  f

let test_channel_survives_memory () =
  let roles ~address_channel =
    let prog = Ir.Prog.create () in
    Ir.Prog.add_func prog (roundtrip_func ~address_channel);
    let fa = Analysis.Funcan.analyze_func prog (List.hd prog.Ir.Prog.funcs) in
    (find_slot fa "i").roles
  in
  Alcotest.(check bool) "value round-trip feeds the branch" true
    (List.mem Analysis.Funcan.Branch_feed (roles ~address_channel:false));
  Alcotest.(check bool) "address round-trip does not" false
    (List.mem Analysis.Funcan.Branch_feed (roles ~address_channel:true))

(* ------------------------------------------------------------------ *)
(* Leakan detection *)

let test_stack_leaky_detected () =
  let v = Option.get (Apps.Synth.find "stack-leaky") in
  let lk = Analysis.Leakan.analyze (Lazy.force v.Apps.Synth.program) in
  let vis = visible lk in
  Alcotest.(check int) "one leak per disclosed local" 6 (List.length vis);
  List.iter
    (fun (l : Analysis.Leakan.leak) ->
      Alcotest.(check bool)
        (Analysis.Leakan.leak_to_string l ^ ": address disclosure to output")
        true
        (l.channel = Analysis.Leakan.Address_disclosure
        &&
        match (l.source, l.sink) with
        | Analysis.Leakan.Slot_addr _, Analysis.Leakan.Output _ -> true
        | _ -> false))
    vis;
  Alcotest.(check bool) "buff is among the disclosed slots" true
    (List.exists
       (fun (l : Analysis.Leakan.leak) ->
         l.source = Analysis.Leakan.Slot_addr "buff")
       vis);
  Alcotest.(check bool) "positive total bits" true (lk.total_bits > 0.)

let test_clean_corpus_no_leaks () =
  List.iter
    (fun (v : Apps.Synth.variant) ->
      let lk = Analysis.Leakan.analyze (Lazy.force v.program) in
      Alcotest.(check int)
        (v.vname ^ ": no output-visible leak")
        0
        (List.length (visible lk)))
    Apps.Synth.variants;
  let w = Option.get (Apps.Spec.find "mcf") in
  let lk = Analysis.Leakan.analyze (Lazy.force w.program) in
  Alcotest.(check int) "mcf: no output-visible leak" 0
    (List.length (visible lk))

let test_interprocedural_disclosure () =
  let _, lk =
    analyze_src
      {|
long sink2(long y) { print_int(y); print_newline(); return y; }
long sink1(long x) { return sink2(x + 1); }
int main() {
  long a = 1;
  long b = 2;
  long buf[4];
  buf[0] = a + b;
  sink1((long)&buf);
  print_int(buf[0]);
  print_newline();
  return 0;
}
|}
  in
  (* &buf flows through two defined callees before reaching output; the
     flow summaries must carry it the whole way *)
  Alcotest.(check bool) "buf address reaches output interprocedurally" true
    (List.exists
       (fun (l : Analysis.Leakan.leak) ->
         l.source = Analysis.Leakan.Slot_addr "buf"
         && l.source_func = "main"
         && l.channel = Analysis.Leakan.Address_disclosure
         &&
         match l.sink with Analysis.Leakan.Output _ -> true | _ -> false)
       lk.leaks)

let test_comparison_oracle () =
  let _, lk =
    analyze_src
      {|
int main() {
  long a = 1;
  long buf[4];
  buf[0] = a;
  if ((long)&buf < (long)&a) { print_str("L"); } else { print_str("R"); }
  print_newline();
  print_int(buf[0]);
  print_newline();
  return 0;
}
|}
  in
  Alcotest.(check bool) "relative-order branch is a one-bit oracle" true
    (List.exists
       (fun (l : Analysis.Leakan.leak) ->
         l.channel = Analysis.Leakan.Comparison_oracle)
       lk.leaks);
  (* an oracle is worth at most one bit per observation *)
  List.iter
    (fun (l : Analysis.Leakan.leak) ->
      if l.channel = Analysis.Leakan.Comparison_oracle then
        Alcotest.(check bool)
          (Analysis.Leakan.leak_to_string l ^ ": at most 1 bit")
          true (l.bits <= 1.))
    lk.leaks

let test_hardened_slice_addr () =
  let v = Option.get (Apps.Synth.find "stack-leaky") in
  let prog = Lazy.force v.Apps.Synth.program in
  let h = Smokestack.Harden.harden Smokestack.Config.default prog in
  let lk = Analysis.Leakan.analyze ~hardened:h h.Smokestack.Harden.prog in
  (* after instrumentation the disclosure prints slab-slice addresses:
     the sources must be the hardened-form secrets, not raw allocas *)
  Alcotest.(check bool) "hardened program still leaks" true (lk.leaks <> []);
  Alcotest.(check bool) "a slice address escapes" true
    (List.exists
       (fun (l : Analysis.Leakan.leak) -> l.source = Analysis.Leakan.Slice_addr)
       lk.leaks)

(* ------------------------------------------------------------------ *)
(* Report JSON: leak rows and the degraded summary *)

let test_report_json_leak_rows () =
  let v = Option.get (Apps.Synth.find "stack-leaky") in
  let report =
    Analysis.Report.analyze_prog ~name:"stack-leaky" (Lazy.force v.program)
  in
  Alcotest.(check bool) "report carries leak rows" true
    (report.Analysis.Report.leakage.Analysis.Leakan.leaks <> []);
  let blind =
    List.assoc "smokestack" (Analysis.Report.summary report)
  and degraded =
    List.assoc "smokestack" (Analysis.Report.summary_degraded report)
  in
  Alcotest.(check bool)
    (Printf.sprintf "degraded %.2f < blind %.2f" degraded blind)
    true
    (degraded < blind);
  (* the written document carries the degraded summary: it re-parses,
     and its smokestack row is the value computed above *)
  let s = Sutil.Json.to_string ~indent:true (Analysis.Report.to_json report) in
  let j = Sutil.Json.of_string_exn s in
  Alcotest.(check (option (float 0.)))
    "degraded summary in the JSON" (Some degraded)
    (Option.bind
       (Option.bind (Sutil.Json.member "summary_degraded" j)
          (Sutil.Json.member "smokestack"))
       Sutil.Json.to_float_opt);
  (* leaking is an application property, not a hardening bug: the
     disclosing build still passes the validator, so [validated]
     and positive [leaked_bits] coexist in the same report *)
  Alcotest.(check bool) "leaky funcs still validate" true
    (report.Analysis.Report.funcs <> []
    && List.for_all
         (fun (f : Analysis.Report.func_summary) -> f.validated)
         report.Analysis.Report.funcs);
  Alcotest.(check bool) "leaked_bits positive" true
    (Analysis.Leakan.leaked_bits_for report.Analysis.Report.leakage [ "serve" ] > 0.)

let test_report_json_leak_free () =
  (* a program with no visible leak writes identical blind and
     degraded summaries *)
  let v = Option.get (Apps.Synth.find "stack-direct") in
  let report =
    Analysis.Report.analyze_prog ~name:"stack-direct" (Lazy.force v.program)
  in
  Alcotest.(check bool) "no visible leak rows" true
    (visible report.Analysis.Report.leakage = []);
  Alcotest.(check bool) "degraded = blind without leaks" true
    (Analysis.Report.summary_degraded report = Analysis.Report.summary report);
  let j =
    Sutil.Json.of_string_exn (Sutil.Json.to_string (Analysis.Report.to_json report))
  in
  let member k = Option.get (Sutil.Json.member k j) in
  Alcotest.(check bool) "JSON summaries agree" true
    (member "summary" = member "summary_degraded")

(* ------------------------------------------------------------------ *)
(* Leak-shaped Progen *)

let leaky_tail_suffix = "  print_int(acc);\n  print_newline();\n  return 0;\n}\n"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_progen_leaky_determinism () =
  List.iter
    (fun seed ->
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld deterministic" seed)
        (Minic.Progen.generate_leaky ~seed)
        (Minic.Progen.generate_leaky ~seed))
    [ 9001L; 9002L; 9003L ]

let test_progen_leaky_benign_prefix () =
  (* the shape draw is the rng's last use: the leaky program is the
     benign one with a disclosure spliced in before the checksum *)
  List.iter
    (fun seed ->
      let b = Minic.Progen.generate ~seed
      and l = Minic.Progen.generate_leaky ~seed in
      let strip s =
        Alcotest.(check bool)
          (Printf.sprintf "seed %Ld: fixed tail present" seed)
          true
          (String.length s >= String.length leaky_tail_suffix
          && String.sub s
               (String.length s - String.length leaky_tail_suffix)
               (String.length leaky_tail_suffix)
             = leaky_tail_suffix);
        String.sub s 0 (String.length s - String.length leaky_tail_suffix)
      in
      let bp = strip b and lp = strip l in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: benign prefix byte-identical" seed)
        true
        (String.length lp > String.length bp
        && String.sub lp 0 (String.length bp) = bp))
    [ 9001L; 9002L; 9003L; 9004L ]

let test_progen_leaky_shapes_and_detection () =
  let seeds = List.init 10 (fun i -> Int64.of_int (9001 + i)) in
  let addr_shape = ref 0 and oracle_shape = ref 0 in
  List.iter
    (fun seed ->
      let src = Minic.Progen.generate_leaky ~seed in
      let is_addr = contains src "print_int((long)&mbuf)" in
      if is_addr then incr addr_shape else incr oracle_shape;
      let _, lk = analyze_src src in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: analyzer flags the leak" seed)
        true
        (visible lk <> []);
      let _, bk = analyze_src (Minic.Progen.generate ~seed) in
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld: benign twin is clean" seed)
        0
        (List.length (visible bk)))
    seeds;
  Alcotest.(check bool) "both shapes appear across the corpus" true
    (!addr_shape > 0 && !oracle_shape > 0)

(* ------------------------------------------------------------------ *)
(* Leak-guided planning and delivery *)

let test_leak_guides () =
  let v = Option.get (Apps.Synth.find "stack-leaky") in
  let prog = Lazy.force v.Apps.Synth.program in
  match Dopc.Plan.leak_guides prog with
  | [ g ] ->
      Alcotest.(check string) "disclosing function" "serve" g.Dopc.Plan.gfunc;
      Alcotest.(check bool) "buffer among disclosed slots" true
        (List.mem "buff" g.Dopc.Plan.disclosed);
      Alcotest.(check int) "all six locals disclosed" 6
        (List.length g.Dopc.Plan.disclosed);
      Alcotest.(check bool) "positive guide bits" true (g.Dopc.Plan.gbits > 0.)
  | gs -> Alcotest.failf "expected exactly one guide, got %d" (List.length gs)

let test_guided_beats_blind () =
  let v = Option.get (Apps.Synth.find "stack-leaky") in
  let prog = Lazy.force v.Apps.Synth.program in
  let guides = Dopc.Plan.leak_guides prog in
  let _, chains = Dopc.Plan.synthesize ~target:"stack-leaky" prog in
  let chain =
    match
      List.find_opt
        (fun (c : Dopc.Chain.t) ->
          (match c.goal with
          | Dopc.Chain.Flip_global _ | Dopc.Chain.Output_contains _ -> true
          | Dopc.Chain.Output_differs -> false)
          && Dopc.Plan.guide_for guides c <> None)
        chains
    with
    | Some c -> c
    | None -> Alcotest.fail "no guidable strong-goal chain synthesized"
  in
  let guide = Option.get (Dopc.Plan.guide_for guides chain) in
  let applied = Defenses.Defense.apply ~seed:3L full_config prog in
  let budget = 40 in
  let guided =
    Dopc.Exec.brute_guided ~backend:Machine.Backend.reference applied chain ~disclosed:guide.Dopc.Plan.disclosed
      ~budget ~seed0:1000
  in
  Alcotest.(check bool)
    (Printf.sprintf "guided lands within %d attempts (took %d)" budget
       (List.length guided))
    true
    (List.exists (fun v -> v = Attacks.Verdict.Success) guided);
  let blind = Dopc.Exec.brute ~backend:Machine.Backend.reference applied chain ~budget ~seed0:0 in
  Alcotest.(check bool) "blind walk exhausts the same budget" false
    (List.exists (fun v -> v = Attacks.Verdict.Success) blind)

let test_leakcheck_smoke () =
  (* the default 8 observation seeds: a 1-bit comparison oracle needs
     several draws before both sides show up, so fewer seeds can
     produce a spurious "no variance" dynamic verdict *)
  let t =
    Harness.Leakcheck.run ~backend:Machine.Backend.reference ~progen:1 ~leaky_progen:2 ~budget:80 ~walks:1 ()
  in
  Alcotest.(check int) "zero static/dynamic disagreements" 0 t.disagreements;
  Alcotest.(check bool) "corpus covers benign and leaky programs" true
    (List.length t.Harness.Leakcheck.rows > 10);
  match t.Harness.Leakcheck.guided with
  | None -> Alcotest.fail "no guided measurement"
  | Some g ->
      Alcotest.(check bool) "guided walk lands inside the budget" true
        (List.for_all (fun a -> a <> None) g.Harness.Leakcheck.guided_attempts);
      Alcotest.(check bool) "blind walk does not" true
        (g.Harness.Leakcheck.blind_attempts = None)

(* ------------------------------------------------------------------ *)

let () =
  Engine.Backend.install ();
  Analysis.Validate.install ();
  Alcotest.run "leakan"
    [
      ( "funcan-laundering",
        [
          Alcotest.test_case "gep-indexed load launders" `Quick
            test_gep_load_launders;
          Alcotest.test_case "direct compare keeps Branch_feed" `Quick
            test_direct_compare_keeps_branch_feed;
          Alcotest.test_case "channel survives memory" `Quick
            test_channel_survives_memory;
        ] );
      ( "detect",
        [
          Alcotest.test_case "stack-leaky disclosures" `Quick
            test_stack_leaky_detected;
          Alcotest.test_case "clean corpus zero FP" `Slow
            test_clean_corpus_no_leaks;
          Alcotest.test_case "interprocedural disclosure" `Quick
            test_interprocedural_disclosure;
          Alcotest.test_case "comparison oracle" `Quick test_comparison_oracle;
          Alcotest.test_case "hardened slice address" `Quick
            test_hardened_slice_addr;
        ] );
      ( "json",
        [
          Alcotest.test_case "leak rows round-trip" `Quick
            test_report_json_leak_rows;
          Alcotest.test_case "leak-free round-trip" `Quick
            test_report_json_leak_free;
        ] );
      ( "progen",
        [
          Alcotest.test_case "leaky determinism" `Quick
            test_progen_leaky_determinism;
          Alcotest.test_case "benign prefix" `Quick
            test_progen_leaky_benign_prefix;
          Alcotest.test_case "shapes and detection" `Slow
            test_progen_leaky_shapes_and_detection;
        ] );
      ( "guided",
        [
          Alcotest.test_case "leak guides" `Quick test_leak_guides;
          Alcotest.test_case "guided beats blind" `Slow
            test_guided_beats_blind;
          Alcotest.test_case "leakcheck smoke" `Slow test_leakcheck_smoke;
        ] );
    ]
