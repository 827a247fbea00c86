(* Tier-1 tests for the bytecode execution engine (lib/engine) and the
   cycle cost model it must reproduce exactly.

   The engine's contract is bit-identity with Machine.Exec.run on every
   observable — outcome, output, float cycle count (order-sensitive
   additions!), instruction/call counts, depth/frame/RSS accounting and
   trace events.  These tests check the contract three ways: direct
   cost arithmetic on hand-built IR, targeted parity cases for every
   divergence-prone path (faults, traps, fuel, detection, laziness),
   and seeded differential fuzzing plus the full application matrix via
   Harness.Diffval.  A fourth group gates the engine's speed contract:
   its dispatch loop allocates nothing per instruction. *)

let ref_backend = Machine.Backend.reference
let bc_backend = Engine.Backend.backend
let both = [ ("reference", ref_backend); ("bytecode", bc_backend) ]

let compile = Minic.Driver.compile

let run_both ?fuel ?(input = "") src =
  let prog = compile src in
  List.map
    (fun (label, (b : Machine.Backend.t)) ->
      let st = Machine.Exec.prepare prog in
      Machine.Exec.set_input st (Machine.Exec.input_string input);
      (label, b.run ?fuel st))
    both

let check_identical what results =
  match results with
  | (_, r1) :: rest ->
      List.iter
        (fun (label, r) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s matches reference" what label)
            true (r = r1))
        rest
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Cost model invariants *)

let test_cost_rng_aes_endpoints () =
  Alcotest.(check (float 0.))
    "AES-1 matches Table I" 19.2
    (Machine.Cost.rng_aes ~rounds:1);
  Alcotest.(check (float 0.))
    "AES-10 matches Table I" 92.8
    (Machine.Cost.rng_aes ~rounds:10);
  Alcotest.(check (float 0.)) "rng_aes1 endpoint" Machine.Cost.rng_aes1
    (Machine.Cost.rng_aes ~rounds:1);
  Alcotest.(check (float 0.)) "rng_aes10 endpoint" Machine.Cost.rng_aes10
    (Machine.Cost.rng_aes ~rounds:10)

let test_cost_rng_aes_bounds () =
  List.iter
    (fun rounds ->
      match Machine.Cost.rng_aes ~rounds with
      | _ -> Alcotest.failf "rounds=%d should be rejected" rounds
      | exception Invalid_argument _ -> ())
    [ 0; 11; -1 ]

let test_cost_rng_monotonic () =
  for rounds = 2 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "rng_aes %d > rng_aes %d" rounds (rounds - 1))
      true
      (Machine.Cost.rng_aes ~rounds > Machine.Cost.rng_aes ~rounds:(rounds - 1))
  done;
  Alcotest.(check bool)
    "pseudo < AES-1 < AES-10 < RDRAND" true
    (Machine.Cost.rng_pseudo < Machine.Cost.rng_aes1
    && Machine.Cost.rng_aes1 < Machine.Cost.rng_aes10
    && Machine.Cost.rng_aes10 < Machine.Cost.rng_rdrand)

let test_cost_structure () =
  let open Machine.Cost in
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) (name ^ " positive") true (c > 0.))
    [
      ("alu", alu); ("div", div); ("load", load); ("load_rodata", load_rodata);
      ("store", store); ("alloca", alloca); ("branch", branch);
      ("cond_branch", cond_branch); ("call_overhead", call_overhead);
      ("intrinsic_base", intrinsic_base); ("syscall", syscall);
    ];
  Alcotest.(check bool) "div dominates alu (P-BOX pow2 payoff)" true (div > alu);
  Alcotest.(check bool) "rodata loads are cache-friendly" true
    (load_rodata < load)

(* Exact per-instruction charges, on hand-built IR so no compiler pass
   can change the instruction mix under the test.  Both engines must
   produce the same hand-computed total. *)
let straightline_prog () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let x = Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Imm 40L) (Ir.Instr.Imm 2L) in
  let q =
    Ir.Builder.binop b Ir.Instr.Sdiv (Ir.Instr.Reg x) (Ir.Instr.Imm 7L)
  in
  let c =
    Ir.Builder.icmp b Ir.Instr.Sgt (Ir.Instr.Reg q) (Ir.Instr.Imm 0L)
  in
  let s =
    Ir.Builder.select b (Ir.Instr.Reg c) (Ir.Instr.Reg q) (Ir.Instr.Imm 0L)
  in
  let a = Ir.Builder.alloca b Ir.Ty.I64 in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Reg s) ~addr:(Ir.Instr.Reg a);
  let l = Ir.Builder.load b Ir.Ty.I64 (Ir.Instr.Reg a) in
  let g = Ir.Builder.gep b (Ir.Instr.Reg a) ~offset:0 in
  let _ = Ir.Builder.sext b ~width:4 (Ir.Instr.Reg l) in
  let _ = Ir.Builder.trunc b ~width:4 (Ir.Instr.Reg g) in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  prog

let straightline_cycles =
  let open Machine.Cost in
  call_overhead +. alu +. div +. alu +. alu +. alloca +. store +. load +. alu
  +. alu +. alu +. branch

let test_cost_per_instruction_charges () =
  let prog = straightline_prog () in
  List.iter
    (fun (label, (b : Machine.Backend.t)) ->
      let st = Machine.Exec.prepare prog in
      let outcome, stats = b.run st in
      Alcotest.(check bool) (label ^ ": exits") true
        (outcome = Machine.Exec.Exit 0L);
      Alcotest.(check (float 0.))
        (label ^ ": hand-computed cycle total")
        straightline_cycles stats.cycles;
      Alcotest.(check int) (label ^ ": instr count") 10 stats.instr_count)
    both

(* ------------------------------------------------------------------ *)
(* Targeted engine parity: every divergence-prone path *)

let test_parity_outputs_and_stats () =
  check_identical "fib+output"
    (run_both
       {|
int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
int main() { print_int(fib(18)); return 0; }
|})

let test_parity_fuel_exhaustion () =
  let results =
    run_both ~fuel:500 {| int main() { while (1) { } return 0; } |}
  in
  List.iter
    (fun (label, (o, _)) ->
      Alcotest.(check bool) (label ^ ": fuel exhausted") true
        (o = Machine.Exec.Fuel_exhausted))
    results;
  check_identical "fuel exhaustion" results

let test_parity_memory_fault () =
  let results =
    run_both {| int main() { int *p; p = 0; return *p; } |}
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Null_dereference; _ } -> ()
      | o ->
          Alcotest.failf "%s: expected null-deref fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "null deref" results

(* The structured fault-path contract both backends must share: a bad
   access produces a [Fault] outcome — never an OCaml exception — with
   the same fault payload on both engines. *)

let test_parity_rodata_write () =
  (* the string literal populates the rodata segment; 65536 is
     [Machine.Exec.rodata_base] *)
  let results =
    run_both
      {| int main() { int *p; print_str("ro"); p = (int*)65536; *p = 7; return 0; } |}
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault
          { fault = Machine.Memory.Write_protected { addr = 65536 }; _ } ->
          ()
      | o ->
          Alcotest.failf "%s: expected write-protected fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "rodata write" results

let test_parity_unmapped_access () =
  (* 0x8000 lies between the function-token page and rodata: no
     segment maps it *)
  let results = run_both {| int main() { int *p; p = (int*)32768; return *p; } |} in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Out_of_bounds _; _ } -> ()
      | o ->
          Alcotest.failf "%s: expected out-of-bounds fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "unmapped access" results

let test_parity_straddling_load () =
  (* 0xCFFFFE is 2 bytes below the stack region's top: a 4-byte load
     starts mapped but runs off the end of the segment *)
  let results =
    run_both {| int main() { int *p; p = (int*)13631486; return *p; } |}
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault
          { fault = Machine.Memory.Out_of_bounds { addr = 13631486; size = 4; _ }; _ }
        ->
          ()
      | o ->
          Alcotest.failf "%s: expected straddling out-of-bounds fault, got %s"
            label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "straddling load" results

let test_parity_stack_overflow () =
  check_identical "stack overflow"
    (run_both
       {|
int deep(int n) { int pad[64]; pad[0] = n; return deep(n + pad[0] - n + 1); }
int main() { return deep(0); }
|})

let test_parity_vla_out_of_range () =
  check_identical "VLA out of range"
    (run_both
       {|
int main() { int n; int buf[n]; n = 0 - 5; buf[0] = n; return buf[0]; }
|})

(* An unknown direct callee must fault only when the call executes, and
   with the reference's message. *)
let unknown_callee_prog () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let c = Ir.Builder.icmp b Ir.Instr.Eq (Ir.Instr.Imm 1L) (Ir.Instr.Imm 1L) in
  Ir.Builder.cond_br b (Ir.Instr.Reg c) ~if_true:"good" ~if_false:"bad";
  let _ = Ir.Builder.start_block b "good" in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  let _ = Ir.Builder.start_block b "bad" in
  let _ = Ir.Builder.call b "no_such_function" [] in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 1L));
  Ir.Prog.add_func prog f;
  prog

let test_parity_unknown_callee_lazy () =
  (* not executed: both engines must succeed *)
  let prog = unknown_callee_prog () in
  List.iter
    (fun (label, (b : Machine.Backend.t)) ->
      let st = Machine.Exec.prepare prog in
      let outcome, _ = b.run st in
      Alcotest.(check bool)
        (label ^ ": dead unknown callee is harmless")
        true
        (outcome = Machine.Exec.Exit 0L))
    both

let test_parity_indirect_call_garbage () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let _ = Ir.Builder.call_ind b (Ir.Instr.Imm 12345L) [ Ir.Instr.Imm 1L ] in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let results =
    List.map
      (fun (label, (bk : Machine.Backend.t)) ->
        (label, bk.run (Machine.Exec.prepare prog)))
      both
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Misc m; _ } ->
          Alcotest.(check string)
            (label ^ ": non-function target message")
            "indirect call to non-function address 0x3039" m
      | o ->
          Alcotest.failf "%s: expected fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "indirect call to non-function" results

let test_parity_unregistered_intrinsic () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let _ = Ir.Builder.intrinsic b "ss_missing" [] in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let results =
    List.map
      (fun (label, (bk : Machine.Backend.t)) ->
        (label, bk.run (Machine.Exec.prepare prog)))
      both
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Misc m; _ } ->
          Alcotest.(check string)
            (label ^ ": unregistered intrinsic message")
            "unregistered intrinsic ss_missing" m
      | o ->
          Alcotest.failf "%s: expected fault, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "unregistered intrinsic" results

let test_parity_detection () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let _ = Ir.Builder.intrinsic b "ss_tripwire" [] in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let results =
    List.map
      (fun (label, (bk : Machine.Backend.t)) ->
        let st = Machine.Exec.prepare prog in
        Machine.Exec.register_intrinsic st "ss_tripwire" (fun _ _ ->
            raise (Machine.Exec.Detect "fid mismatch"));
        (label, bk.run st))
      both
  in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Detected { reason = "fid mismatch"; func = "main" } -> ()
      | o ->
          Alcotest.failf "%s: expected detection, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "detection" results

(* The reference evaluates only the taken select arm; an unresolvable
   operand in the dead arm must stay dormant on both engines. *)
let select_lazy_prog ~take_bad =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let cond = if take_bad then 0L else 1L in
  let s =
    Ir.Builder.select b (Ir.Instr.Imm cond) (Ir.Instr.Imm 0L)
      (Ir.Instr.Global "no_such_global")
  in
  Ir.Builder.ret b (Some (Ir.Instr.Reg s));
  Ir.Prog.add_func prog f;
  prog

let test_parity_select_lazy_arms () =
  List.iter
    (fun (label, (bk : Machine.Backend.t)) ->
      let outcome, _ = bk.run (Machine.Exec.prepare (select_lazy_prog ~take_bad:false)) in
      Alcotest.(check bool)
        (label ^ ": dead bad arm never evaluated")
        true
        (outcome = Machine.Exec.Exit 0L))
    both;
  (* taken bad arm: the reference raises Invalid_argument out of run *)
  List.iter
    (fun (label, (bk : Machine.Backend.t)) ->
      match bk.run (Machine.Exec.prepare (select_lazy_prog ~take_bad:true)) with
      | _ -> Alcotest.failf "%s: expected Invalid_argument" label
      | exception Invalid_argument m ->
          Alcotest.(check string)
            (label ^ ": unknown-global message")
            "Machine.Exec.global_addr: no global no_such_global" m)
    both

let test_parity_trace_events () =
  let prog =
    compile
      {|
int helper(int x) { return x * 3; }
int main() { print_int(helper(2) + helper(5)); return 0; }
|}
  in
  let traces =
    List.map
      (fun (label, (bk : Machine.Backend.t)) ->
        let st = Machine.Exec.prepare prog in
        let t = Machine.Trace.create () in
        Machine.Trace.attach t st;
        let _ = bk.run st in
        (label, Machine.Trace.events t))
      both
  in
  check_identical "trace events" traces

(* Hand-built [main]: [body] emits into the entry block and returns the
   operand [main] returns. *)
let main_prog ?(setup = fun _ -> ()) body =
  let prog = Ir.Prog.create () in
  setup prog;
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let r = body b in
  Ir.Builder.ret b (Some r);
  Ir.Prog.add_func prog f;
  prog

(* Outcome and stats, or the message of the exception a broken operand
   raises out of [run]. *)
let run_prog prog =
  List.map
    (fun (label, (bk : Machine.Backend.t)) ->
      ( label,
        match bk.run (Machine.Exec.prepare prog) with
        | r -> Ok r
        | exception Invalid_argument m -> Error m ))
    both

let expect_fault what msg results =
  List.iter
    (fun (label, r) ->
      match r with
      | Ok (Machine.Exec.Fault { fault = Machine.Memory.Misc m; _ }, _) ->
          Alcotest.(check string) (label ^ ": " ^ what) msg m
      | Ok (o, _) ->
          Alcotest.failf "%s: %s: expected fault, got %s" label what
            (Machine.Exec.outcome_to_string o)
      | Error m ->
          Alcotest.failf "%s: %s: expected fault, got Invalid_argument %s"
            label what m)
    results;
  check_identical what results

(* Two unresolvable operands: the reference reads a binop's rhs before
   its lhs, so the rhs's fault must win over the lhs's exception. *)
let test_parity_binop_rhs_trap_first () =
  expect_fault "rhs error wins" "unknown function reference no_such_fn"
    (run_prog
       (main_prog (fun b ->
            Ir.Instr.Reg
              (Ir.Builder.binop b Ir.Instr.Add (Ir.Instr.Global "no_such_global")
                 (Ir.Instr.Func_ref "no_such_fn")))))

(* ... and a store's value before its address. *)
let test_parity_store_value_trap_first () =
  expect_fault "value error wins" "unknown function reference no_such_fn"
    (run_prog
       (main_prog (fun b ->
            Ir.Builder.store b Ir.Ty.I64 ~value:(Ir.Instr.Func_ref "no_such_fn")
              ~addr:(Ir.Instr.Global "no_such_global");
            Ir.Instr.Imm 0L)))

let edge_values = [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 63L; 64L ]

let test_parity_operator_edges () =
  let pairs =
    List.concat_map (fun a -> List.map (fun b -> (a, b)) edge_values) edge_values
  in
  let case what emit =
    List.iter
      (fun (a, b) ->
        let what = Printf.sprintf "%s %Ld %Ld" what a b in
        let results =
          run_prog
            (main_prog (fun bd ->
                 Ir.Instr.Reg (emit bd (Ir.Instr.Imm a) (Ir.Instr.Imm b))))
        in
        check_identical what results)
      pairs
  in
  let open Ir.Instr in
  List.iter
    (fun (name, op) -> case name (fun bd -> Ir.Builder.binop bd op))
    [
      ("add", Add); ("sub", Sub); ("mul", Mul); ("sdiv", Sdiv); ("udiv", Udiv);
      ("srem", Srem); ("urem", Urem); ("and", And); ("or", Or); ("xor", Xor);
      ("shl", Shl); ("lshr", Lshr); ("ashr", Ashr);
    ];
  List.iter
    (fun (name, op) -> case name (fun bd -> Ir.Builder.icmp bd op))
    [
      ("eq", Eq); ("ne", Ne); ("slt", Slt); ("sle", Sle); ("sgt", Sgt);
      ("sge", Sge); ("ult", Ult); ("ule", Ule);
    ];
  List.iter
    (fun op ->
      expect_fault "division by zero" "division by zero"
        (run_prog
           (main_prog (fun bd ->
                Reg (Ir.Builder.binop bd op (Imm 7L) (Imm 0L))))))
    [ Sdiv; Udiv; Srem; Urem ]

let test_parity_casts () =
  List.iter
    (fun width ->
      List.iter
        (fun v ->
          List.iter
            (fun (name, emit) ->
              check_identical
                (Printf.sprintf "%s width %d of %Ld" name width v)
                (run_prog
                   (main_prog (fun b ->
                        Ir.Instr.Reg (emit b ~width (Ir.Instr.Imm v))))))
            [ ("sext", Ir.Builder.sext); ("trunc", Ir.Builder.trunc) ])
        (0x80L :: 0x7fffL :: 0x80000000L :: 0x123456789abcdefL :: edge_values))
    [ 1; 2; 4; 8 ]

(* Loads and stores at every width, alternating between the stack, a
   writable global, the heap and rodata, so the segment cache misses on
   every access; the exit code hashes every loaded value. *)
let test_parity_segment_widths () =
  let setup prog =
    Ir.Prog.add_global prog ~name:"data" ~ty:(Ir.Ty.Array (Ir.Ty.I8, 64))
      ~writable:true ();
    Ir.Prog.add_global prog ~name:"ro" ~ty:(Ir.Ty.Array (Ir.Ty.I8, 16))
      ~init:"\x81\x82\x83\x84\x85\x86\x87\x88\xf1\xf2\xf3\xf4\xf5\xf6\xf7\xf8"
      ~writable:false ();
    Ir.Prog.add_extern prog "malloc"
  in
  let prog =
    main_prog ~setup (fun b ->
        let open Ir.Instr in
        let stack = Reg (Ir.Builder.alloca b (Ir.Ty.Array (Ir.Ty.I8, 64))) in
        let heap =
          match Ir.Builder.call b ~result:true "malloc" [ Imm 64L ] with
          | Some r -> Reg r
          | None -> assert false
        in
        let segs = [ stack; Global "data"; heap ] in
        let acc = ref (Imm 0L) in
        let fold v =
          let m = Ir.Builder.binop b Mul !acc (Imm 31L) in
          acc := Reg (Ir.Builder.binop b Add (Reg m) (Reg v))
        in
        List.iteri
          (fun k ty ->
            let value = Imm (Int64.mul 0x0102030405060708L (Int64.of_int (k + 0x71))) in
            List.iteri
              (fun j base ->
                let addr = Reg (Ir.Builder.gep b base ~offset:(8 * j)) in
                Ir.Builder.store b ty ~value ~addr;
                fold (Ir.Builder.load b ty addr);
                fold (Ir.Builder.load b Ir.Ty.I64 addr);
                fold (Ir.Builder.load b ty (Global "ro")))
              (segs @ List.rev segs))
          [ Ir.Ty.I8; Ir.Ty.I16; Ir.Ty.I32; Ir.Ty.I64 ];
        !acc)
  in
  let results = run_prog prog in
  List.iter
    (fun (label, r) ->
      match r with
      | Ok (Machine.Exec.Exit _, _) -> ()
      | _ -> Alcotest.failf "%s: expected a clean exit" label)
    results;
  check_identical "segment widths" results

(* Registers outside the reference's [int64 array] frame fail its bounds
   check: a read when the operand is evaluated, a write once the
   instruction has run (after the callee returns, for a call), a
   parameter right after the callee's arity check. *)
let test_parity_registers_outside_frame () =
  let open Ir.Instr in
  let func ?(params = []) name instrs term =
    let f = Ir.Func.create ~name ~params ~returns:(Some Ir.Ty.I64) in
    f.blocks <- [ { Ir.Func.label = "entry"; instrs; term } ];
    f
  in
  let prog funcs =
    let p = Ir.Prog.create () in
    List.iter (Ir.Prog.add_func p) funcs;
    p
  in
  let three = func "three" [] (Ret (Some (Imm 3L))) in
  let cases =
    [
      ("read", prog [ func "main" [] (Ret (Some (Reg 7))) ]);
      ( "write",
        prog
          [
            func "main"
              [ Binop { dst = 50; op = Add; lhs = Imm 1L; rhs = Imm 2L } ]
              (Ret (Some (Imm 0L)));
          ] );
      ( "call result",
        prog
          [
            func "main" [ Call { dst = Some 50; callee = "three"; args = [] } ]
              (Ret (Some (Imm 0L)));
            three;
          ] );
      ( "parameter",
        prog
          [
            func "main"
              [ Call { dst = None; callee = "f"; args = [ Imm 5L ] } ]
              (Ret (Some (Imm 0L)));
            func ~params:[ (-1, Ir.Ty.I64) ] "f" [] (Ret (Some (Imm 0L)));
          ] );
    ]
  in
  List.iter
    (fun (what, p) ->
      check_identical what
        (List.map
           (fun (label, (bk : Machine.Backend.t)) ->
             let st = Machine.Exec.prepare p in
             match bk.run st with
             | _ -> Alcotest.failf "%s: %s: expected Invalid_argument" label what
             | exception Invalid_argument m ->
                 (label, (m, st.instr_count, st.call_count, st.max_depth)))
           both))
    cases

(* ------------------------------------------------------------------ *)
(* Allocation gate *)

(* A call-free loop of 5000 iterations whose body is the loop counter
   [i] and one op under test, plus the counter's load, add, store,
   compare and branch.  A boxed int64 is 24 bytes, so one boxing arm
   puts its loop far above the gate of 1 byte per instruction. *)
let alloc_loop_prog body =
  let prog = Ir.Prog.create () in
  Ir.Prog.add_global prog ~name:"g" ~ty:(Ir.Ty.Array (Ir.Ty.I8, 64)) ~writable:true ();
  let f = Ir.Func.create ~name:"main" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  let open Ir.Instr in
  let buf = Reg (Ir.Builder.alloca b (Ir.Ty.Array (Ir.Ty.I8, 64))) in
  let slot = Reg (Ir.Builder.alloca b Ir.Ty.I64) in
  Ir.Builder.store b Ir.Ty.I64 ~value:(Imm 0L) ~addr:slot;
  Ir.Builder.br b "loop";
  let _ = Ir.Builder.start_block b "loop" in
  let i = Reg (Ir.Builder.load b Ir.Ty.I64 slot) in
  body b ~buf i;
  let next = Reg (Ir.Builder.binop b Add i (Imm 1L)) in
  Ir.Builder.store b Ir.Ty.I64 ~value:next ~addr:slot;
  let more = Ir.Builder.icmp b Slt next (Imm 5000L) in
  Ir.Builder.cond_br b (Reg more) ~if_true:"loop" ~if_false:"done";
  let _ = Ir.Builder.start_block b "done" in
  Ir.Builder.ret b (Some i);
  Ir.Prog.add_func prog f;
  prog

let alloc_bodies =
  let open Ir.Instr in
  let emit f b ~buf:_ i = ignore (f b i) in
  List.map
    (fun op -> ("binop", emit (fun b i -> Ir.Builder.binop b op i (Imm 3L))))
    [ Add; Sub; Mul; Sdiv; Udiv; Srem; Urem; And; Or; Xor; Shl; Lshr; Ashr ]
  @ List.map
      (fun op -> ("icmp", emit (fun b i -> Ir.Builder.icmp b op i (Imm 100L))))
      [ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule ]
  @ [
      ("select", emit (fun b i -> Ir.Builder.select b i (Imm 5L) i));
      ("gep", emit (fun b i -> Ir.Builder.gep_idx b i ~offset:8 ~index:i ~scale:4));
    ]
  @ List.concat_map
      (fun width ->
        [
          ("sext", emit (fun b i -> Ir.Builder.sext b ~width i));
          ("trunc", emit (fun b i -> Ir.Builder.trunc b ~width i));
        ])
      [ 1; 2; 4 ]
  @ List.concat_map
      (fun ty ->
        List.map
          (fun seg ->
            ( "load/store",
              fun b ~buf i ->
                let base = if seg = "stack" then buf else Global seg in
                let idx = Reg (Ir.Builder.binop b And i (Imm 7L)) in
                let addr =
                  Reg (Ir.Builder.gep_idx b base ~offset:0 ~index:idx ~scale:8)
                in
                Ir.Builder.store b ty ~value:i ~addr;
                ignore (Ir.Builder.load b ty addr) ))
          [ "stack"; "g" ])
      [ Ir.Ty.I8; Ir.Ty.I16; Ir.Ty.I32; Ir.Ty.I64 ]

let test_alloc_gate () =
  List.iteri
    (fun k (what, body) ->
      let prog = alloc_loop_prog body in
      (* the first run compiles and caches the image; measure the second *)
      let _ = bc_backend.run ~fuel:100 (Machine.Exec.prepare prog) in
      let st = Machine.Exec.prepare prog in
      let before = Gc.minor_words () in
      let outcome, stats = bc_backend.run st in
      let bytes = (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8) in
      (match outcome with
      | Machine.Exec.Exit _ -> ()
      | o ->
          Alcotest.failf "%s loop %d did not exit: %s" what k
            (Machine.Exec.outcome_to_string o));
      let per_instr = bytes /. float_of_int stats.instr_count in
      if per_instr >= 1. then
        Alcotest.failf "%s loop %d: %.2f bytes allocated per instruction" what k
          per_instr;
      check_identical (Printf.sprintf "%s loop %d" what k) (run_prog prog))
    alloc_bodies

(* The IR verifier runs twice per compiled program, after lowering and
   after hardening, so it must not allocate per instruction: under 24
   bytes per IR instruction (terminators included) over 200 Progen
   programs in both forms.  Every array it makes for these programs is
   below [Max_young_wosize], so the minor heap sees all of it. *)
let test_verifier_alloc () =
  let progs =
    List.concat_map
      (fun (_, src) ->
        let prog = compile src in
        [ prog; (Smokestack.Harden.harden ~seed:3L ~validate:false
                   Smokestack.Config.default prog).prog ])
      (List.of_seq (Minic.Progen.range ~seed:1L 200))
  in
  let instrs =
    List.fold_left
      (fun n (p : Ir.Prog.t) ->
        List.fold_left
          (fun n (f : Ir.Func.t) ->
            List.fold_left
              (fun n (b : Ir.Func.block) -> n + 1 + List.length b.instrs)
              n f.blocks)
          n p.funcs)
      0 progs
  in
  let before = Gc.minor_words () in
  let errors = List.concat_map Ir.Verifier.verify progs in
  let bytes = (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8) in
  Alcotest.(check int) "programs verify" 0 (List.length errors);
  let per_instr = bytes /. float_of_int instrs in
  if per_instr >= 24. then
    Alcotest.failf "verifier: %.1f bytes allocated per IR instruction" per_instr

(* Words allocated per call of [f] over [n] calls: minor and major
   heap together, so a block too large for the minor heap counts too. *)
let words_per_call n f =
  let before = Gc.allocated_bytes () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (f i))
  done;
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  /. float_of_int n

(* A warm campaign replay compiles nothing, so generating each source
   is most of its cost: under 4,000 words per program over 600 seeds
   (the [Printf]-based generator took about 9,500). *)
let test_progen_alloc () =
  let words =
    words_per_call 600 (fun i ->
        Minic.Progen.generate ~seed:(Int64.of_int (1000 + i)))
  in
  if words >= 4000. then
    Alcotest.failf "Progen: %.0f words allocated per program" words

(* A Simrng draw allocates nothing; 100k draws leave room only for the
   measurement's own boxed float. *)
let test_simrng_alloc () =
  let rng = Sutil.Simrng.create ~seed:42L in
  let words =
    words_per_call 100_000 (fun i ->
        Sutil.Simrng.int rng ~bound:(1 + (i land 1023)))
  in
  if words *. 100_000. > 8. then
    Alcotest.failf "Simrng.int: %.4f words allocated per draw" words

(* ------------------------------------------------------------------ *)
(* Forced minor collections *)

(* [Array.make] of more than [Max_young_wosize] (256) words with a young
   initial value first runs a minor collection, and under OCaml 5 that
   stops every domain of the pool.  [Array.of_list] and [Array.init] do
   the same with their first element.  The runtime counts each such
   collection as EV_C_FORCE_MINOR_MAKE_VECT; [f] gets a [poll] to call
   often enough that the event ring cannot overflow. *)
let forced_minor_collections f =
  let forced = ref 0 and lost = ref 0 in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_counter:(fun _ _ counter _ ->
        if counter = Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT then incr forced)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let poll () = ignore (Runtime_events.read_poll cursor callbacks None) in
  poll ();
  forced := 0;
  f poll;
  poll ();
  Runtime_events.free_cursor cursor;
  Runtime_events.pause ();
  if !lost > 0 then Alcotest.failf "%d runtime events lost" !lost;
  !forced

(* Parse, lower, harden, prepare and run on the bytecode engine: the
   14 corpus programs and 50 Progen programs, none of which may force
   a collection. *)
let test_no_forced_minor () =
  let sources =
    List.map (fun (w : Apps.Spec.workload) -> w.source) Apps.Spec.all
    @ List.of_seq (Seq.map snd (Minic.Progen.range ~seed:1L 50))
  in
  let forced =
    forced_minor_collections (fun poll ->
        List.iteri
          (fun i src ->
            let hardened =
              Smokestack.Harden.harden ~seed:3L ~validate:false
                Smokestack.Config.default (compile src)
            in
            let entropy = Crypto.Entropy.create ~seed:(Int64.of_int i) in
            ignore (bc_backend.run (Smokestack.Harden.prepare ~entropy hardened));
            poll ())
          sources)
  in
  Alcotest.(check int) "forced minor collections" 0 forced

(* ------------------------------------------------------------------ *)
(* Backend registry *)

let test_backend_registry () =
  Alcotest.(check bool) "reference always registered" true
    (Option.is_some (Machine.Backend.find_opt Machine.Backend.Reference));
  Engine.Backend.install ();
  Alcotest.(check bool) "bytecode registered after install" true
    (Option.is_some (Machine.Backend.find_opt Machine.Backend.Bytecode));
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Machine.Backend.kind_to_string kind ^ " name round-trips")
        true
        (Machine.Backend.kind_of_string (Machine.Backend.kind_to_string kind)
        = Some kind))
    Machine.Backend.all_kinds;
  Alcotest.(check bool) "aliases resolve" true
    (Machine.Backend.kind_of_string "bc" = Some Machine.Backend.Bytecode
    && Machine.Backend.kind_of_string "interp" = Some Machine.Backend.Reference
    && Machine.Backend.kind_of_string "nonsense" = None)

(* ------------------------------------------------------------------ *)
(* Differential validation: fuzzed programs + the application matrix *)

let test_diffval_progen () =
  let report = Harness.Diffval.check_progen ~seed:1000L 50 in
  if not (Harness.Diffval.ok report) then
    Alcotest.fail (Harness.Diffval.report_to_string report);
  Alcotest.(check int) "all seeds ran" 50 report.cases

let test_diffval_apps () =
  let report = Harness.Diffval.check_apps () in
  if not (Harness.Diffval.ok report) then
    Alcotest.fail (Harness.Diffval.report_to_string report)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "cost",
        [
          Alcotest.test_case "rng_aes endpoints" `Quick
            test_cost_rng_aes_endpoints;
          Alcotest.test_case "rng_aes bounds" `Quick test_cost_rng_aes_bounds;
          Alcotest.test_case "rng monotonicity" `Quick test_cost_rng_monotonic;
          Alcotest.test_case "charge structure" `Quick test_cost_structure;
          Alcotest.test_case "per-instruction charges" `Quick
            test_cost_per_instruction_charges;
        ] );
      ( "parity",
        [
          Alcotest.test_case "outputs and stats" `Quick
            test_parity_outputs_and_stats;
          Alcotest.test_case "fuel exhaustion" `Quick test_parity_fuel_exhaustion;
          Alcotest.test_case "memory fault" `Quick test_parity_memory_fault;
          Alcotest.test_case "rodata write" `Quick test_parity_rodata_write;
          Alcotest.test_case "unmapped access" `Quick test_parity_unmapped_access;
          Alcotest.test_case "straddling load" `Quick test_parity_straddling_load;
          Alcotest.test_case "stack overflow" `Quick test_parity_stack_overflow;
          Alcotest.test_case "VLA out of range" `Quick
            test_parity_vla_out_of_range;
          Alcotest.test_case "unknown callee is lazy" `Quick
            test_parity_unknown_callee_lazy;
          Alcotest.test_case "indirect call garbage" `Quick
            test_parity_indirect_call_garbage;
          Alcotest.test_case "unregistered intrinsic" `Quick
            test_parity_unregistered_intrinsic;
          Alcotest.test_case "detection" `Quick test_parity_detection;
          Alcotest.test_case "select arms stay lazy" `Quick
            test_parity_select_lazy_arms;
          Alcotest.test_case "trace events" `Quick test_parity_trace_events;
          Alcotest.test_case "binop reads rhs first" `Quick
            test_parity_binop_rhs_trap_first;
          Alcotest.test_case "store reads value first" `Quick
            test_parity_store_value_trap_first;
          Alcotest.test_case "operator edge values" `Quick
            test_parity_operator_edges;
          Alcotest.test_case "sext/trunc widths" `Quick test_parity_casts;
          Alcotest.test_case "load/store widths across segments" `Quick
            test_parity_segment_widths;
          Alcotest.test_case "registers outside the frame" `Quick
            test_parity_registers_outside_frame;
        ] );
      ( "backend",
        [ Alcotest.test_case "registry" `Quick test_backend_registry ] );
      ( "diffval",
        [
          Alcotest.test_case "50 progen programs" `Slow test_diffval_progen;
          Alcotest.test_case "application matrix" `Slow test_diffval_apps;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "loops allocate nothing" `Quick test_alloc_gate;
          Alcotest.test_case "verifier allocation per instruction" `Quick
            test_verifier_alloc;
          Alcotest.test_case "progen allocation per program" `Quick
            test_progen_alloc;
          Alcotest.test_case "simrng draws allocate nothing" `Quick
            test_simrng_alloc;
        ] );
      ( "forced-minor",
        [
          Alcotest.test_case "compile path forces no minor collection" `Quick
            test_no_forced_minor;
        ] );
    ]
