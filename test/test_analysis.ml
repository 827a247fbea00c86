(* Tests for the static DOP attack-surface analyzer (lib/analysis):
   hand-built IR for the classification corner cases, pair enumeration,
   JSON round-tripping, the Spec dop_hints ground truth, and the
   dynamic/static differential validation. *)

let reasons_to_strings rs = List.map Analysis.Funcan.reason_to_string rs

let find_slot (fa : Analysis.Funcan.t) name =
  match List.find_opt (fun (s : Analysis.Funcan.slot) -> s.name = name) fa.slots with
  | Some s -> s
  | None -> Alcotest.failf "%s: no slot %s" fa.fname name

(* ------------------------------------------------------------------ *)
(* Interval domain *)

let itv = Alcotest.testable Analysis.Interval.pp Analysis.Interval.equal

(* refining against a non-singleton rhs must use the sound bound: from
   lhs < rhs we only know lhs <= max(rhs)-1, and from lhs > rhs only
   lhs >= min(rhs)+1 *)
let test_refine_nonsingleton_rhs () =
  let open Analysis.Interval in
  let lhs = of_bounds 0L 1000L and rhs = of_bounds 0L 100L in
  Alcotest.check itv "slt taken" (of_bounds 0L 99L)
    (refine Ir.Instr.Slt ~taken:true lhs ~rhs);
  Alcotest.check itv "sle taken" (of_bounds 0L 100L)
    (refine Ir.Instr.Sle ~taken:true lhs ~rhs);
  Alcotest.check itv "sgt taken" (of_bounds 1L 1000L)
    (refine Ir.Instr.Sgt ~taken:true lhs ~rhs);
  Alcotest.check itv "sge taken" (of_bounds 0L 1000L)
    (refine Ir.Instr.Sge ~taken:true lhs ~rhs);
  Alcotest.check itv "sge not-taken (lt)" (of_bounds 0L 99L)
    (refine Ir.Instr.Sge ~taken:false lhs ~rhs);
  Alcotest.check itv "sle not-taken (gt)" (of_bounds 1L 1000L)
    (refine Ir.Instr.Sle ~taken:false lhs ~rhs);
  Alcotest.check itv "ult taken" (of_bounds 0L 99L)
    (refine Ir.Instr.Ult ~taken:true lhs ~rhs);
  (* i in [0,1000] refined by i < n, n in [0,100]: must NOT go empty *)
  Alcotest.(check bool) "slt taken not empty" false
    (is_empty (refine Ir.Instr.Slt ~taken:true lhs ~rhs));
  (* singleton rhs still refines exactly *)
  Alcotest.check itv "slt taken singleton" (of_bounds 0L 7L)
    (refine Ir.Instr.Slt ~taken:true lhs ~rhs:(const 8L))

let test_widen_lower_threshold () =
  let open Analysis.Interval in
  (* a lower bound drifting just below zero snaps to -128 (the i8
     boundary), not straight to -2^31 *)
  Alcotest.check itv "snaps to -128" (of_bounds (-128L) 10L)
    (widen ~old:(of_bounds (-5L) 10L) (of_bounds (-6L) 10L));
  Alcotest.check itv "snaps to -32768" (of_bounds (-32768L) 10L)
    (widen ~old:(of_bounds (-200L) 10L) (of_bounds (-201L) 10L));
  Alcotest.check itv "hi snaps to 127" (of_bounds 0L 127L)
    (widen ~old:(of_bounds 0L 5L) (of_bounds 0L 6L))

(* ------------------------------------------------------------------ *)
(* Hand-built IR: classification *)

(* for (i = 0; i < 8; i++) buf[i] = 1;  -- provably in-bounds *)
let bounded_loop_func () =
  let f = Ir.Func.create ~name:"f" ~params:[] ~returns:None in
  let b = Ir.Builder.create f in
  let buf = Ir.Builder.alloca b ~name:"buf" (Ir.Ty.Array (Ir.Ty.I64, 8)) in
  let i = Ir.Builder.alloca b ~name:"i" Ir.Ty.I64 in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Imm 0L) ~addr:(Ir.Instr.Reg i);
  Ir.Builder.br b "loop";
  let _ = Ir.Builder.start_block b "loop" in
  let iv = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg i) in
  let c = Ir.Builder.icmp b Ir.Instr.Slt (Ir.Instr.Reg iv) (Ir.Instr.Imm 8L) in
  Ir.Builder.cond_br b (Ir.Instr.Reg c) ~if_true:"body" ~if_false:"exit";
  let _ = Ir.Builder.start_block b "body" in
  let iv2 = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg i) in
  let addr =
    Ir.Builder.gep_idx b (Ir.Instr.Reg buf) ~offset:0 ~index:(Ir.Instr.Reg iv2)
      ~scale:8
  in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Imm 1L)
    ~addr:(Ir.Instr.Reg addr);
  let n = Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Reg iv2) (Ir.Instr.Imm 1L) in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Reg n) ~addr:(Ir.Instr.Reg i);
  Ir.Builder.br b "loop";
  let _ = Ir.Builder.start_block b "exit" in
  Ir.Builder.ret b None;
  f

let test_bounded_loop_safe () =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_func prog (bounded_loop_func ());
  let fa = Analysis.Funcan.analyze_func prog (List.hd prog.Ir.Prog.funcs) in
  Alcotest.(check (list string)) "buf provably safe" []
    (reasons_to_strings (find_slot fa "buf").overflow);
  Alcotest.(check (list string)) "i provably safe" []
    (reasons_to_strings (find_slot fa "i").overflow)

(* buf[p] = 1 with p a parameter -- the index interval is top *)
let unbounded_index_func () =
  let f = Ir.Func.create ~name:"f" ~params:[ (0, Ir.Ty.I64) ] ~returns:None in
  let b = Ir.Builder.create f in
  let buf = Ir.Builder.alloca b ~name:"buf" (Ir.Ty.Array (Ir.Ty.I64, 8)) in
  let addr =
    Ir.Builder.gep_idx b (Ir.Instr.Reg buf) ~offset:0 ~index:(Ir.Instr.Reg 0)
      ~scale:8
  in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Imm 1L)
    ~addr:(Ir.Instr.Reg addr);
  Ir.Builder.ret b None;
  f

let test_unbounded_index_overflow () =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_func prog (unbounded_index_func ());
  let fa = Analysis.Funcan.analyze_func prog (List.hd prog.Ir.Prog.funcs) in
  match (find_slot fa "buf").overflow with
  | [] -> Alcotest.fail "buf should be overflow-capable"
  | rs ->
      Alcotest.(check bool) "out-of-extent reason" true
        (List.exists
           (function Analysis.Funcan.Out_of_extent _ -> true | _ -> false)
           rs)

(* g(&buf) -- the address escapes to a defined callee *)
let escape_prog () =
  let prog = Ir.Prog.create () in
  let g = Ir.Func.create ~name:"g" ~params:[ (0, Ir.Ty.Ptr) ] ~returns:None in
  let bg = Ir.Builder.create g in
  Ir.Builder.ret bg None;
  Ir.Prog.add_func prog g;
  let f = Ir.Func.create ~name:"f" ~params:[] ~returns:None in
  let b = Ir.Builder.create f in
  let buf = Ir.Builder.alloca b ~name:"buf" (Ir.Ty.Array (Ir.Ty.I8, 16)) in
  ignore (Ir.Builder.call b ~result:false "g" [ Ir.Instr.Reg buf ]);
  Ir.Builder.ret b None;
  Ir.Prog.add_func prog f;
  prog

let test_escaped_pointer_overflow () =
  let prog = escape_prog () in
  let fas = Analysis.Funcan.analyze prog in
  let fa = List.find (fun (a : Analysis.Funcan.t) -> a.fname = "f") fas in
  match (find_slot fa "buf").overflow with
  | [] -> Alcotest.fail "escaped buf should be overflow-capable"
  | rs ->
      Alcotest.(check bool) "escape reason" true
        (List.exists
           (function Analysis.Funcan.Escape _ -> true | _ -> false)
           rs)

(* ------------------------------------------------------------------ *)
(* Pair enumeration *)

(* vict (declared first, so above) feeds a branch; buf below it is
   overflow-capable through a parameter-indexed store *)
let pair_func () =
  let f = Ir.Func.create ~name:"g" ~params:[ (0, Ir.Ty.I64) ] ~returns:None in
  let b = Ir.Builder.create f in
  let vict = Ir.Builder.alloca b ~name:"vict" Ir.Ty.I64 in
  let buf = Ir.Builder.alloca b ~name:"buf" (Ir.Ty.Array (Ir.Ty.I8, 16)) in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Imm 7L)
    ~addr:(Ir.Instr.Reg vict);
  let addr =
    Ir.Builder.gep_idx b (Ir.Instr.Reg buf) ~offset:0 ~index:(Ir.Instr.Reg 0)
      ~scale:1
  in
  Ir.Builder.store b Ir.Ty.I8 ~value:(Ir.Instr.Imm 65L)
    ~addr:(Ir.Instr.Reg addr);
  let v = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg vict) in
  let c = Ir.Builder.icmp b Ir.Instr.Eq (Ir.Instr.Reg v) (Ir.Instr.Imm 7L) in
  Ir.Builder.cond_br b (Ir.Instr.Reg c) ~if_true:"yes" ~if_false:"no";
  let _ = Ir.Builder.start_block b "yes" in
  Ir.Builder.ret b None;
  let _ = Ir.Builder.start_block b "no" in
  Ir.Builder.ret b None;
  f

let test_pair_enumeration () =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_func prog (pair_func ());
  let fas = Analysis.Funcan.analyze prog in
  let pairs = Analysis.Dop.enumerate prog fas in
  let same_frame =
    List.filter
      (fun (p : Analysis.Dop.pair) -> p.kind = Analysis.Dop.Same_frame)
      pairs
  in
  match same_frame with
  | [ p ] ->
      Alcotest.(check string) "buffer" "buf" p.buf_slot;
      Alcotest.(check string) "victim" "vict" p.victim_slot;
      (* vict at -8, buf (16 B, below it) at -24: distance 16 *)
      Alcotest.(check (option int)) "static distance" (Some 16)
        p.static_distance;
      Alcotest.(check bool) "victim feeds a branch" true
        (List.mem Analysis.Funcan.Branch_feed p.victim_roles)
  | l -> Alcotest.failf "expected exactly one same-frame pair, got %d" (List.length l)

(* the same program with the declarations swapped yields no same-frame
   pair: overflows only write upward *)
let test_pair_direction_filter () =
  let f = Ir.Func.create ~name:"g" ~params:[ (0, Ir.Ty.I64) ] ~returns:None in
  let b = Ir.Builder.create f in
  let buf = Ir.Builder.alloca b ~name:"buf" (Ir.Ty.Array (Ir.Ty.I8, 16)) in
  let vict = Ir.Builder.alloca b ~name:"vict" Ir.Ty.I64 in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Imm 7L)
    ~addr:(Ir.Instr.Reg vict);
  let addr =
    Ir.Builder.gep_idx b (Ir.Instr.Reg buf) ~offset:0 ~index:(Ir.Instr.Reg 0)
      ~scale:1
  in
  Ir.Builder.store b Ir.Ty.I8 ~value:(Ir.Instr.Imm 65L)
    ~addr:(Ir.Instr.Reg addr);
  let v = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg vict) in
  let c = Ir.Builder.icmp b Ir.Instr.Eq (Ir.Instr.Reg v) (Ir.Instr.Imm 7L) in
  Ir.Builder.cond_br b (Ir.Instr.Reg c) ~if_true:"yes" ~if_false:"no";
  let _ = Ir.Builder.start_block b "yes" in
  Ir.Builder.ret b None;
  let _ = Ir.Builder.start_block b "no" in
  Ir.Builder.ret b None;
  let prog = Ir.Prog.create () in
  Ir.Prog.add_func prog f;
  let pairs = Analysis.Dop.enumerate prog (Analysis.Funcan.analyze prog) in
  Alcotest.(check int) "no same-frame pair downward" 0
    (List.length
       (List.filter
          (fun (p : Analysis.Dop.pair) -> p.kind = Analysis.Dop.Same_frame)
          pairs))

(* ------------------------------------------------------------------ *)
(* JSON round-trip: the [analyze --json] document is write-only, so
   what round-trips is its text — it re-parses and re-renders to the
   same bytes.  test/analyze_stack_leaky.golden pins one document. *)

let json_text_round_trips ?indent report =
  let s = Sutil.Json.to_string ?indent (Analysis.Report.to_json report) in
  match Sutil.Json.of_string s with
  | Error e -> Alcotest.failf "JSON re-parse failed: %s" e
  | Ok j ->
      Alcotest.(check string) "re-renders to the same text" s
        (Sutil.Json.to_string ?indent j)

let test_json_roundtrip () =
  let v = Option.get (Apps.Synth.find "stack-direct") in
  let report =
    Analysis.Report.analyze_prog ~name:"stack-direct" (Lazy.force v.program)
  in
  json_text_round_trips ~indent:true report;
  Alcotest.(check bool)
    "every function validated under default hardening" true
    (report.funcs <> []
    && List.for_all
         (fun (f : Analysis.Report.func_summary) -> f.validated)
         report.funcs)

let test_json_roundtrip_unscored () =
  let prog = escape_prog () in
  json_text_round_trips (Analysis.Report.analyze_prog ~name:"tiny" ~score:false prog)

(* ------------------------------------------------------------------ *)
(* Ground truth: Spec dop_hints, and dynamic => static validation *)

let test_spec_hints_hold () =
  List.iter
    (fun (w : Apps.Spec.workload) ->
      if w.dop_hints <> [] then
        let fas = Analysis.Funcan.analyze (Lazy.force w.program) in
        List.iter
          (fun (fname, slot) ->
            let fa =
              List.find (fun (a : Analysis.Funcan.t) -> a.fname = fname) fas
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s:%s overflow-capable" w.wname fname slot)
              true
              ((find_slot fa slot).overflow <> []))
          w.dop_hints)
    Apps.Spec.all

let test_crossval_all_validated () =
  let t = Harness.Crossval.run ~backend:Machine.Backend.reference ~trials:2 () in
  Alcotest.(check int) "covers all eleven attacks" 11 (List.length t.rows);
  List.iter
    (fun (r : Harness.Crossval.row) ->
      Alcotest.(check bool) (r.cname ^ " lands dynamically") true
        r.dynamic_success;
      Alcotest.(check bool)
        (r.cname ^ " has its witness pair statically")
        true r.validated)
    t.rows;
  Alcotest.(check bool) "all validated" true t.all_validated

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "interval",
        [
          Alcotest.test_case "refine non-singleton rhs" `Quick
            test_refine_nonsingleton_rhs;
          Alcotest.test_case "widen lower thresholds" `Quick
            test_widen_lower_threshold;
        ] );
      ( "classify",
        [
          Alcotest.test_case "bounded loop safe" `Quick test_bounded_loop_safe;
          Alcotest.test_case "unbounded index" `Quick
            test_unbounded_index_overflow;
          Alcotest.test_case "escaped pointer" `Quick
            test_escaped_pointer_overflow;
        ] );
      ( "pairs",
        [
          Alcotest.test_case "enumeration" `Quick test_pair_enumeration;
          Alcotest.test_case "direction filter" `Quick
            test_pair_direction_filter;
        ] );
      ( "json",
        [
          Alcotest.test_case "scored round-trip" `Slow test_json_roundtrip;
          Alcotest.test_case "unscored round-trip" `Quick
            test_json_roundtrip_unscored;
        ] );
      ( "ground-truth",
        [
          Alcotest.test_case "spec hints" `Slow test_spec_hints_hold;
          Alcotest.test_case "crossval" `Slow test_crossval_all_validated;
        ] );
    ]
