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
    (Machine.Cost.rng_pseudo < Machine.Cost.rng_aes ~rounds:1
    && Machine.Cost.rng_aes ~rounds:1 < Machine.Cost.rng_aes ~rounds:10
    && Machine.Cost.rng_aes ~rounds:10 < Machine.Cost.rng_rdrand)

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
   writable global, the heap and rodata, so the two-entry segment cache
   misses or swaps on nearly every access; the exit code hashes every
   loaded value. *)
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
(* The memory fast path and fused ops *)

(* Both engines on fresh states of [prog], each handed to [setup]
   first, compared through Harness.Diffval.compare_observables, so
   [rss_bytes] (the touched pages) counts too.  An exception out of
   [run] (a branch to a missing label raises Not_found) must be the
   same on both, at the same instruction count.  Returns the
   reference's outcome. *)
let check_observables ?fuel ?(setup = fun _ -> ()) what prog =
  let run (bk : Machine.Backend.t) =
    let st = Machine.Exec.prepare prog in
    setup st;
    match bk.run ?fuel st with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e, st.instr_count)
  in
  match (run ref_backend, run bc_backend) with
  | Ok r1, Ok r2 ->
      (match Harness.Diffval.compare_observables ~case:what r1 r2 with
      | [] -> ()
      | m :: _ ->
          Alcotest.failf "%s: %s differs: %s (reference) vs %s" what m.field
            m.expected m.actual);
      Ok (fst r1)
  | e1, e2 ->
      Alcotest.(check bool) (what ^ ": same exception") true (e1 = e2);
      Error ()

(* Where a prepared state maps segment [name]. *)
let segment_base name =
  (Machine.Memory.segment (Machine.Exec.prepare (Ir.Prog.create ())).mem name).base

let expect_outcome what ok = function
  | Ok o when ok o -> ()
  | Ok o -> Alcotest.failf "%s: unexpected %s" what (Machine.Exec.outcome_to_string o)
  | Error () -> Alcotest.failf "%s: unexpected exception" what

let exits = function Machine.Exec.Exit _ -> true | _ -> false

(* Consecutive accesses that alternate between the stack (every local),
   the heap, a global and a string literal in rodata, so the segment
   cache swaps, scans and hits in turn. *)
let test_parity_segments_alternate () =
  let prog =
    compile
      {|
int g[16];
int main() {
  int s[16]; int *h; char *r; int i; int acc;
  h = malloc(64); r = "0123456789abcdef"; acc = 0;
  for (i = 0; i < 200; i = i + 1) {
    s[i & 15] = i; h[i & 15] = acc; g[i & 15] = s[(i * 7) & 15];
    acc = (acc * 31 + s[i & 15] + h[(i + 3) & 15] + g[(i + 5) & 15] + r[i & 15]) & 1048575;
  }
  print_int(acc);
  return acc & 255;
}
|}
  in
  expect_outcome "alternating segments" exits
    (check_observables "alternating segments" prog)

(* 2-, 4- and 8-byte accesses that straddle a page boundary of the heap,
   the stack, a writable global and rodata, at every misalignment.  A
   load from each segment's pages 0 and 2 first makes its window cover
   pages 0-2, so the first access to page 1 is a window hit that must
   mark page 1 touched itself; a store and a load then hit the same
   bytes.  Last, with an access to another segment in between (so the
   segment is the cache's second entry), an access that starts inside
   the window and ends past it must grow the window.  The page offsets
   count from each segment's base. *)
let test_parity_page_straddle () =
  let page = Machine.Memory.page_size in
  let setup prog =
    Ir.Prog.add_global prog ~name:"big" ~ty:(Ir.Ty.Array (Ir.Ty.I8, 4 * page))
      ~writable:true ();
    Ir.Prog.add_global prog ~name:"robig" ~ty:(Ir.Ty.Array (Ir.Ty.I8, 4 * page))
      ~init:(String.init (4 * page) (fun i -> Char.chr ((i * 37) land 0xff)))
      ~writable:false ()
  in
  let prog =
    main_prog ~setup (fun b ->
        let open Ir.Instr in
        let acc = ref (Imm 0L) in
        let fold v =
          let m = Ir.Builder.binop b Mul !acc (Imm 31L) in
          acc := Reg (Ir.Builder.binop b Add (Reg m) (Reg v))
        in
        let at a = Imm (Int64.of_int a) in
        List.iter
          (fun (seg, writable) ->
            let base = segment_base seg in
            fold (Ir.Builder.load b Ir.Ty.I8 (at base));
            fold (Ir.Builder.load b Ir.Ty.I8 (at (base + (2 * page))));
            List.iter
              (fun (ty, width) ->
                for k = 1 to width - 1 do
                  let addr = at (base + page - k) in
                  fold (Ir.Builder.load b ty addr);
                  if writable then
                    Ir.Builder.store b ty
                      ~value:(Imm (Int64.of_int ((k * 0x01010101) + width)))
                      ~addr;
                  fold (Ir.Builder.load b ty addr)
                done)
              [ (Ir.Ty.I16, 2); (Ir.Ty.I32, 4); (Ir.Ty.I64, 8) ];
            let other = segment_base (if seg = "heap" then "stack" else "heap") in
            fold (Ir.Builder.load b Ir.Ty.I8 (at other));
            let edge = at (base + (3 * page) - 4) in
            if writable then Ir.Builder.store b Ir.Ty.I64 ~value:(Imm 77L) ~addr:edge;
            fold (Ir.Builder.load b Ir.Ty.I8 (at other));
            fold (Ir.Builder.load b Ir.Ty.I64 edge))
          [ ("heap", true); ("stack", true); ("data", true); ("rodata", false) ];
        !acc)
  in
  expect_outcome "page straddle" exits (check_observables "page straddle" prog)

(* A VLA per iteration moves the stack down and a 12,000-byte stride
   walks the heap up, so both windows grow while the loop's accesses
   keep hitting them. *)
let test_parity_windows_grow_in_loop () =
  let prog =
    compile
      {|
int main() {
  int i; int s; int *h; int n;
  h = malloc(4000000); s = 0;
  for (i = 0; i < 300; i = i + 1) {
    n = 64 + i;
    {
      int buf[n];
      buf[0] = i; buf[n - 1] = s;
      h[i * 3000] = buf[0] + buf[n - 1];
      s = (s + h[i * 3000] + h[i]) & 65535;
    }
  }
  print_int(s);
  return s & 255;
}
|}
  in
  expect_outcome "growing windows" exits
    (check_observables "growing windows" prog)

(* A fault-injection hook that fires once, mid-run, during a run of
   heap loads and stores that all hit the heap's window: it flips a heap
   byte and a stack byte far outside their windows (so Memory.flip_bit
   replaces both windows' bytes), then a bit of the heap word the run
   reads, and clears itself.  The flip must land before the access at
   which the hook fires, and every later access must see the new
   windows. *)
let test_parity_hook_clears_itself () =
  let heap = segment_base "heap" in
  let word = heap + 64 in
  let prog =
    main_prog (fun b ->
        let open Ir.Instr in
        let acc = ref (Imm 0L) in
        for j = 1 to 40 do
          let v = Ir.Builder.load b Ir.Ty.I64 (Imm (Int64.of_int word)) in
          let m = Ir.Builder.binop b Mul !acc (Imm 3L) in
          acc := Reg (Ir.Builder.binop b Add (Reg m) (Reg v));
          if j mod 8 = 0 then
            Ir.Builder.store b Ir.Ty.I64 ~value:!acc
              ~addr:(Imm (Int64.of_int (word + 8)))
        done;
        !acc)
  in
  let stack = segment_base "stack" in
  List.iter
    (fun trigger ->
      let setup (st : Machine.Exec.state) =
        Machine.Memory.set_access_hook st.mem
          (Some
             (fun () ->
               if st.instr_count >= trigger then begin
                 Machine.Memory.flip_bit st.mem ~addr:(heap + 2_000_000) ~bit:2;
                 Machine.Memory.flip_bit st.mem ~addr:(stack + 100) ~bit:0;
                 Machine.Memory.flip_bit st.mem ~addr:word ~bit:5;
                 Machine.Memory.set_access_hook st.mem None
               end))
      in
      let what = Printf.sprintf "hook at instruction %d" trigger in
      expect_outcome what exits (check_observables ~setup what prog))
    [ 1; 2; 17; 40; 77; 101; 150 ]

(* With the last-hit segment rodata, a store into it must still fault;
   with it the stack, a load from address 0 must still be a null
   dereference, and one within a few bytes of [max_int] out of
   bounds. *)
let test_parity_rodata_store_null_load () =
  let open Ir.Instr in
  let setup prog =
    Ir.Prog.add_global prog ~name:"ro" ~ty:(Ir.Ty.Array (Ir.Ty.I8, 16))
      ~init:"abcdefghijklmnop" ~writable:false ()
  in
  let rodata_store =
    main_prog ~setup (fun b ->
        let v = Ir.Builder.load b Ir.Ty.I8 (Global "ro") in
        let w = Ir.Builder.load b Ir.Ty.I8 (Global "ro") in
        Ir.Builder.store b Ir.Ty.I8 ~value:(Reg v) ~addr:(Global "ro");
        Reg w)
  in
  let stack_then addr =
    main_prog (fun b ->
        let slot = Reg (Ir.Builder.alloca b Ir.Ty.I64) in
        Ir.Builder.store b Ir.Ty.I64 ~value:(Imm 5L) ~addr:slot;
        let _ = Ir.Builder.load b Ir.Ty.I64 slot in
        Reg (Ir.Builder.load b Ir.Ty.I32 (Imm addr)))
  in
  let fault what want prog =
    expect_outcome what
      (function
        | Machine.Exec.Fault { fault; _ } -> want fault | _ -> false)
      (check_observables what prog)
  in
  fault "store into rodata"
    (function Machine.Memory.Write_protected _ -> true | _ -> false)
    rodata_store;
  fault "load from address 0"
    (function Machine.Memory.Null_dereference -> true | _ -> false)
    (stack_then 0L);
  fault "load near max_int"
    (function Machine.Memory.Out_of_bounds _ -> true | _ -> false)
    (stack_then (Int64.of_int (max_int - 3)))

(* The name of a fused op's kind. *)
let fused_name : Engine.Compile.op -> string option = function
  | Ogep_load _ -> Some "gep-load"
  | Oload_load _ -> Some "load-load"
  | Oadd_store _ -> Some "add-store"
  | Ostore_jmp _ -> Some "store-jmp"
  | One_condbr _ -> Some "ne-condbr"
  | Oslt_condbr _ -> Some "slt-ne-condbr"
  | Oeq_condbr _ -> Some "eq-ne-condbr"
  | _ -> None

let fused_kinds =
  [ "gep-load"; "load-load"; "add-store"; "store-jmp"; "ne-condbr";
    "slt-ne-condbr"; "eq-ne-condbr" ]

let fused_in prog =
  let p = Engine.Compile.compile (Machine.Exec.prepare prog) in
  Array.fold_left
    (fun acc (bf : Engine.Compile.bfunc) ->
      Array.fold_left
        (fun acc op ->
          match fused_name op with
          | Some k when not (List.mem k acc) -> k :: acc
          | _ -> acc)
        acc bf.code)
    [] p.funcs

(* One program per fused kind, after a stack slot holding 5: with
   [~fault:false] both halves run cleanly; with [~fault:true] the
   second half faults (a load or store at an unmapped address) or, for
   a branch, goes to a label that does not exist. *)
let fused_prog kind ~fault =
  let open Ir.Instr in
  main_prog (fun b ->
      let slot = Reg (Ir.Builder.alloca b Ir.Ty.I64) in
      Ir.Builder.store b Ir.Ty.I64 ~value:(Imm 5L) ~addr:slot;
      let bad = Imm 8L in
      let target = if fault then "missing" else "next" in
      let branch cond =
        Ir.Builder.cond_br b cond ~if_true:target ~if_false:target;
        let _ = Ir.Builder.start_block b "next" in
        ()
      in
      let v = Reg (Ir.Builder.load b Ir.Ty.I64 slot) in
      let r =
        match kind with
        | "gep-load" ->
            let p = Ir.Builder.gep b (if fault then bad else slot) ~offset:0 in
            Reg (Ir.Builder.load b Ir.Ty.I64 (Reg p))
        | "load-load" ->
            let _ = Ir.Builder.binop b Add v (Imm 1L) in
            let a = Ir.Builder.load b Ir.Ty.I64 slot in
            let c = Ir.Builder.load b Ir.Ty.I32 (if fault then bad else slot) in
            Reg (Ir.Builder.binop b Add (Reg a) (Reg c))
        | "add-store" ->
            let x = Ir.Builder.binop b Add v (Imm 1L) in
            Ir.Builder.store b Ir.Ty.I64 ~value:(Reg x)
              ~addr:(if fault then bad else slot);
            Reg x
        | "store-jmp" ->
            Ir.Builder.store b Ir.Ty.I64 ~value:(Imm 9L) ~addr:slot;
            Ir.Builder.br b target;
            let _ = Ir.Builder.start_block b "next" in
            Reg (Ir.Builder.load b Ir.Ty.I64 slot)
        | "ne-condbr" ->
            branch (Reg (Ir.Builder.icmp b Ne v (Imm 3L)));
            v
        | "slt-ne-condbr" | "eq-ne-condbr" ->
            let op = if kind = "slt-ne-condbr" then Slt else Eq in
            let c = Ir.Builder.icmp b op v (Imm 3L) in
            branch (Reg (Ir.Builder.icmp b Ne (Reg c) (Imm 0L)));
            v
        | k -> invalid_arg k
      in
      r)

(* Each fused kind under every fuel from 1 (so fuel runs out on each
   half in turn) to a full run, and with a fault in its second half. *)
let test_parity_fused_fuel_and_faults () =
  List.iter
    (fun kind ->
      List.iter
        (fun fault ->
          let prog = fused_prog kind ~fault in
          Alcotest.(check bool)
            (Printf.sprintf "%s program fuses %s" kind kind)
            true
            (List.mem kind (fused_in prog));
          for fuel = 1 to 10 do
            ignore
              (check_observables ~fuel
                 (Printf.sprintf "%s%s, fuel %d" kind
                    (if fault then " faulting" else "")
                    fuel)
                 prog)
          done;
          let what = kind ^ if fault then " faulting" else "" in
          match check_observables what prog with
          | Ok (Machine.Exec.Exit _) when not fault -> ()
          | Ok (Machine.Exec.Fault _) when fault -> ()
          | Error () when fault -> ()
          | _ -> Alcotest.failf "%s: unexpected result" what)
        [ false; true ])
    fused_kinds

(* Every run enters [main] with no arguments: a program without one
   faults before any instruction, outside every function. *)
let test_parity_no_main () =
  let prog = Ir.Prog.create () in
  let f = Ir.Func.create ~name:"start" ~params:[] ~returns:(Some Ir.Ty.I64) in
  let b = Ir.Builder.create f in
  Ir.Builder.ret b (Some (Ir.Instr.Imm 0L));
  Ir.Prog.add_func prog f;
  let results =
    List.map
      (fun (label, (b : Machine.Backend.t)) -> (label, b.run (Machine.Exec.prepare prog)))
      both
  in
  List.iter
    (fun (label, (o, (s : Machine.Exec.stats))) ->
      (match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Misc "no entry function main"; func = "-" } -> ()
      | o ->
          Alcotest.failf "%s: expected the missing-main fault, got %s" label
            (Machine.Exec.outcome_to_string o));
      Alcotest.(check int) (label ^ ": nothing ran") 0 s.instr_count)
    results;
  check_identical "no main" results

(* ... and a [main] that takes a parameter faults on its arity. *)
let test_parity_main_arity () =
  let results = run_both {| int main(int x) { return x; } |} in
  List.iter
    (fun (label, (o, _)) ->
      match o with
      | Machine.Exec.Fault { fault = Machine.Memory.Misc m; func = "main" }
        when String.starts_with ~prefix:"call to main with 0 args" m ->
          ()
      | o ->
          Alcotest.failf "%s: expected an arity fault in main, got %s" label
            (Machine.Exec.outcome_to_string o))
    results;
  check_identical "main arity" results

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
  @ List.map
      (fun (kind, body) -> ("fused " ^ kind, body))
      [
        ( "gep-load",
          fun b ~buf i ->
            let idx = Reg (Ir.Builder.binop b And i (Imm 7L)) in
            let p = Ir.Builder.gep_idx b buf ~offset:0 ~index:idx ~scale:8 in
            ignore (Ir.Builder.load b Ir.Ty.I64 (Reg p)) );
        ( "load-load",
          fun b ~buf _ ->
            ignore (Ir.Builder.load b Ir.Ty.I64 buf);
            ignore (Ir.Builder.load b Ir.Ty.I32 (Global "g")) );
        ( "add-store",
          fun b ~buf i ->
            let v = Ir.Builder.binop b Add i (Imm 5L) in
            Ir.Builder.store b Ir.Ty.I32 ~value:(Reg v) ~addr:buf );
        ( "store-jmp",
          fun b ~buf i ->
            Ir.Builder.store b Ir.Ty.I16 ~value:i ~addr:buf;
            Ir.Builder.br b "mid";
            ignore (Ir.Builder.start_block b "mid") );
        ( "ne-condbr",
          fun b ~buf:_ i ->
            let c = Ir.Builder.icmp b Ne i (Imm 3L) in
            Ir.Builder.cond_br b (Reg c) ~if_true:"mid" ~if_false:"mid";
            ignore (Ir.Builder.start_block b "mid") );
        ( "slt-ne-condbr",
          fun b ~buf:_ i ->
            let c = Ir.Builder.icmp b Slt i (Imm 3L) in
            let t = Ir.Builder.icmp b Ne (Reg c) (Imm 0L) in
            Ir.Builder.cond_br b (Reg t) ~if_true:"mid" ~if_false:"mid";
            ignore (Ir.Builder.start_block b "mid") );
        ( "eq-ne-condbr",
          fun b ~buf:_ i ->
            let c = Ir.Builder.icmp b Eq i (Imm 3L) in
            let t = Ir.Builder.icmp b Ne (Reg c) (Imm 0L) in
            Ir.Builder.cond_br b (Reg t) ~if_true:"mid" ~if_false:"mid";
            ignore (Ir.Builder.start_block b "mid") );
      ]

let test_alloc_gate () =
  List.iteri
    (fun k (what, body) ->
      let prog = alloc_loop_prog body in
      (match String.split_on_char ' ' what with
      | [ "fused"; kind ] ->
          if not (List.mem kind (fused_in prog)) then
            Alcotest.failf "%s loop %d has no %s op" what k kind
      | _ -> ());
      (* the bound runner's first run compiles the image; measure the second *)
      let run = bc_backend.load prog in
      let _ = run ~fuel:100 (Machine.Exec.prepare prog) in
      let st = Machine.Exec.prepare prog in
      let before = Gc.minor_words () in
      let outcome, stats = run st in
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

(* Over the 14 corpus programs, hardened: every fused kind occurs, each
   fused op's covered slots hold the halves it stands for, and no fused
   op covers a block start or an Oraise slot.  The corpus writes no
   register outside a frame, so a function's blocks start at the running
   sum of their lengths (instructions plus terminator). *)
let test_fusion_structure () =
  let open Engine.Compile in
  let seen = ref [] in
  List.iter
    (fun (w : Apps.Spec.workload) ->
      let h =
        Smokestack.Harden.harden ~seed:3L ~validate:false Smokestack.Config.default
          (Minic.Driver.compile w.source)
      in
      let p = Engine.Compile.compile (Machine.Exec.prepare h.prog) in
      Array.iter2
        (fun bf (f : Ir.Func.t) ->
          let code = bf.code in
          let len = Array.length code - 1 in
          let starts = Array.make (len + 1) false in
          let n =
            List.fold_left
              (fun off (b : Ir.Func.block) ->
                starts.(off) <- true;
                off + List.length b.instrs + 1)
              0 f.blocks
          in
          Alcotest.(check int) (bf.fname ^ ": one slot per instruction") len n;
          Array.iteri
            (fun pc op ->
              let k = span op in
              Option.iter
                (fun kind -> if not (List.mem kind !seen) then seen := kind :: !seen)
                (fused_name op);
              for j = 1 to k - 1 do
                if pc + j >= len || starts.(pc + j) then
                  Alcotest.failf "%s %s: fused op at %d covers block start %d"
                    w.wname bf.fname pc (pc + j);
                match code.(pc + j) with
                | Oraise _ ->
                    Alcotest.failf "%s %s: fused op at %d covers an Oraise"
                      w.wname bf.fname pc
                | _ -> ()
              done;
              let halves_match =
                match op with
                | Ogep_load g -> (
                    match code.(pc + 1) with
                    | Oload l -> l.addr = g.dst && l.dst = g.ldst && l.width = g.width
                    | _ -> false)
                | Oload_load l -> (
                    match code.(pc + 1) with
                    | Oload l2 -> l2.dst = l.dst2 && l2.addr = l.addr2 && l2.width = l.width2
                    | _ -> false)
                | Oadd_store a -> (
                    match code.(pc + 1) with
                    | Ostore s -> s.value = a.dst && s.addr = a.addr && s.width = a.width
                    | _ -> false)
                | Ostore_jmp s -> code.(pc + 1) = Ojmp s.target
                | One_condbr c -> (
                    match code.(pc + 1) with
                    | Ocondbr b ->
                        b.cond = c.dst && b.if_true = c.if_true && b.if_false = c.if_false
                    | _ -> false)
                | Oslt_condbr { ndst; if_true; if_false; dst; _ }
                | Oeq_condbr { ndst; if_true; if_false; dst; _ } -> (
                    match (code.(pc + 1), code.(pc + 2)) with
                    | One ne, Ocondbr b ->
                        ne.dst = ndst && ne.lhs = dst && b.cond = ndst
                        && b.if_true = if_true && b.if_false = if_false
                    | _ -> false)
                | _ -> true
              in
              if not halves_match then
                Alcotest.failf "%s %s: fused op at %d does not match its slots"
                  w.wname bf.fname pc)
            code)
        p.funcs
        (Array.of_list h.prog.funcs))
    Apps.Spec.all;
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " occurs in the corpus") true
        (List.mem kind !seen))
    fused_kinds

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

(* A runner from [load] is bound to its program: a state prepared from
   another program, even an identical copy, is refused on both
   backends, and the runner still runs its own program afterwards. *)
let test_bound_runner_guard () =
  let p = compile "int main() { print_int(7); return 1; }" in
  let q = compile "int main() { return 2; }" in
  List.iter
    (fun (label, (b : Machine.Backend.t)) ->
      let run = b.load p in
      List.iter
        (fun (what, other) ->
          match run (Machine.Exec.prepare other) with
          | _ -> Alcotest.failf "%s: ran a state of %s" label what
          | exception Invalid_argument _ -> ())
        [ ("another program", q); ("a copy", Ir.Prog.copy p) ];
      let outcome, stats = run (Machine.Exec.prepare p) in
      Alcotest.(check string) (label ^ ": own program runs") "exit 1 / 7"
        (Machine.Exec.outcome_to_string outcome ^ " / " ^ stats.output))
    both

(* Two runners of one hardened program, each shared by jobs on a
   2-domain pool (so both domains may compile or read one image at
   once): every run's observables equal the reference interpreter's. *)
let test_bound_runners_on_a_pool () =
  let h =
    Smokestack.Harden.harden ~seed:3L ~validate:false Smokestack.Config.default
      (compile (Minic.Progen.generate ~seed:1000L))
  in
  let state i =
    Smokestack.Harden.prepare ~entropy:(Crypto.Entropy.create ~seed:(Int64.of_int i)) h
  in
  List.iter
    (fun (label, (b : Machine.Backend.t)) ->
      let runners = [| b.load h.prog; b.load h.prog |] in
      let runs =
        Sched.Pool.with_pool ~jobs:2 (fun pool ->
            Sched.Pool.run_all pool
              (List.init 8 (fun i ->
                   Sched.Job.v ~id:(string_of_int i) (fun () ->
                       runners.(i mod 2) ~fuel:2_000_000 (state i)))))
      in
      List.iteri
        (fun i run ->
          let case = Printf.sprintf "%s run %d" label i in
          match
            Harness.Diffval.compare_observables ~case
              (ref_backend.run ~fuel:2_000_000 (state i))
              run
          with
          | [] -> ()
          | m :: _ ->
              Alcotest.failf "%s: %s differs (%s, want %s)" case m.field m.actual
                m.expected)
        runs)
    both

(* Progen programs all define [main] and share helper names.  The
   reference interpreter keeps its label maps per run, so runs of
   different programs interleaved on a 2-domain pool see only their own
   program: every run's observables equal a sequential run's. *)
let test_reference_runs_share_nothing () =
  let progs =
    List.init 6 (fun i -> compile (Minic.Progen.generate ~seed:(Int64.of_int (2000 + i))))
  in
  let run prog = ref_backend.run ~fuel:2_000_000 (Machine.Exec.prepare prog) in
  let sequential = List.map run progs in
  let pooled =
    Sched.Pool.with_pool ~jobs:2 (fun pool ->
        Sched.Pool.run_all pool
          (List.init 24 (fun i ->
               Sched.Job.v ~id:(string_of_int i) (fun () -> run (List.nth progs (i mod 6))))))
  in
  List.iteri
    (fun i r ->
      let case = Printf.sprintf "run %d (program %d)" i (i mod 6) in
      match Harness.Diffval.compare_observables ~case (List.nth sequential (i mod 6)) r with
      | [] -> ()
      | m :: _ ->
          Alcotest.failf "%s: %s differs (%s, want %s)" case m.field m.actual m.expected)
    pooled

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
          Alcotest.test_case "accesses alternate between segments" `Quick
            test_parity_segments_alternate;
          Alcotest.test_case "accesses straddle a page" `Quick
            test_parity_page_straddle;
          Alcotest.test_case "windows grow mid-loop" `Quick
            test_parity_windows_grow_in_loop;
          Alcotest.test_case "access hook clears itself" `Quick
            test_parity_hook_clears_itself;
          Alcotest.test_case "rodata store, null and wrapping loads" `Quick
            test_parity_rodata_store_null_load;
          Alcotest.test_case "fused ops: fuel and faults" `Quick
            test_parity_fused_fuel_and_faults;
          Alcotest.test_case "no main" `Quick test_parity_no_main;
          Alcotest.test_case "main takes a parameter" `Quick
            test_parity_main_arity;
        ] );
      ( "backend",
        [
          Alcotest.test_case "registry" `Quick test_backend_registry;
          Alcotest.test_case "bound runner refuses another program" `Quick
            test_bound_runner_guard;
          Alcotest.test_case "bound runners on a 2-domain pool" `Quick
            test_bound_runners_on_a_pool;
          Alcotest.test_case "reference runs on a 2-domain pool" `Quick
            test_reference_runs_share_nothing;
        ] );
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
          Alcotest.test_case "fused ops in the hardened corpus" `Quick
            test_fusion_structure;
        ] );
      ( "forced-minor",
        [
          Alcotest.test_case "compile path forces no minor collection" `Quick
            test_no_forced_minor;
        ] );
    ]
