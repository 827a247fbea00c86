(* Tests for the automated DOP-attack compiler (lib/offense) and its
   experiment harness (E17): planner composition, payload-lowering
   round trips, and the determinism properties the acceptance bar
   demands — chain sets and verdicts byte-identical across engines,
   and the E17 report byte-identical across --jobs widths. *)

let ref_backend = Machine.Backend.reference
let bc_backend = Engine.Backend.backend

let prog_of name =
  match Apps.Synth.find name with
  | Some v -> Lazy.force v.Apps.Synth.program
  | None -> Alcotest.failf "no synth variant %s" name

let synth ?max_chains name =
  Dopc.Plan.synthesize ?max_chains ~target:name (prog_of name)

let apply d prog = Defenses.Defense.apply ~seed:3L d prog

let smokestack_full = Defenses.Defense.Smokestack Smokestack.Config.default

(* ------------------------------------------------------------------ *)
(* Planner composition *)

let test_plan_stack_direct_dispatch_loop () =
  let model, chains = synth "stack-direct" in
  Alcotest.(check bool) "static pairs found" true (model.Dopc.Plan.pairs <> []);
  Alcotest.(check bool)
    "probing learned at least one arithmetic gadget" true
    (List.exists
       (fun (g : Dopc.Gadget.t) ->
         match g.kind with Dopc.Gadget.Arith _ -> true | _ -> false)
       model.Dopc.Plan.learned);
  match
    List.find_opt
      (fun (c : Dopc.Chain.t) -> c.family = Dopc.Chain.Dispatch_loop)
      chains
  with
  | None -> Alcotest.fail "no dispatch-loop chain for stack-direct"
  | Some c -> (
      Alcotest.(check bool) "multi-step chain" true (List.length c.steps > 1);
      Alcotest.(check bool) "grounded in static pairs" true (c.pair_ids <> []);
      match c.goal with
      | Dopc.Chain.Flip_global ("auth", v) ->
          Alcotest.(check int64) "flips auth to the compared constant" 0x1337L v
      | g -> Alcotest.failf "unexpected goal %s" (Dopc.Chain.goal_to_string g))

let test_plan_stack_indirect_aim_write () =
  let _, chains = synth "stack-indirect" in
  match
    List.find_opt
      (fun (c : Dopc.Chain.t) -> c.family = Dopc.Chain.Aim_write)
      chains
  with
  | None -> Alcotest.fail "no aim-write chain for stack-indirect"
  | Some c -> (
      match c.goal with
      | Dopc.Chain.Flip_global ("auth", 0x1337L) -> ()
      | g -> Alcotest.failf "unexpected goal %s" (Dopc.Chain.goal_to_string g))

let test_plan_input_free_is_undeliverable () =
  (* no read_input => no Deliver gadget => zero chains, honestly *)
  let prog = Minic.Driver.compile (Minic.Progen.generate ~seed:9001L) in
  let model, chains = Dopc.Plan.synthesize ~target:"progen-9001" prog in
  Alcotest.(check int) "no chains" 0 (List.length chains);
  Alcotest.(check bool)
    "no deliver gadget" true
    (not
       (List.exists
          (fun (g : Dopc.Gadget.t) -> g.kind = Dopc.Gadget.Deliver)
          model.Dopc.Plan.gadgets))

let test_plan_deterministic () =
  List.iter
    (fun name ->
      let _, a = synth name in
      let _, b = synth name in
      Alcotest.(check (list string))
        (name ^ ": chain ids stable across runs")
        (List.map (fun (c : Dopc.Chain.t) -> c.chain_id) a)
        (List.map (fun (c : Dopc.Chain.t) -> c.chain_id) b);
      Alcotest.(check bool) (name ^ ": chains structurally equal") true (a = b))
    [ "stack-direct"; "stack-indirect"; "heap-direct" ]

let test_plan_max_chains_is_prefix () =
  let _, all = synth "stack-direct" in
  let _, two = synth ~max_chains:2 "stack-direct" in
  Alcotest.(check int) "capped" 2 (List.length two);
  Alcotest.(check (list string))
    "cap takes a prefix of the full set"
    (List.map (fun (c : Dopc.Chain.t) -> c.chain_id) two)
    (List.filteri (fun i _ -> i < 2) all
    |> List.map (fun (c : Dopc.Chain.t) -> c.chain_id))

(* ------------------------------------------------------------------ *)
(* Payload lowering *)

let le64_at s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

(* Against an undefended build the binary reveals the frame, so the
   layout is exact and lowering must place every write's value at the
   slot's offset — decoding the payload bytes recovers the chain. *)
let test_lower_round_trip () =
  let prog = prog_of "stack-direct" in
  let applied = apply Defenses.Defense.No_defense prog in
  let _, chains = synth "stack-direct" in
  Alcotest.(check bool) "have chains" true (chains <> []);
  List.iter
    (fun (c : Dopc.Chain.t) ->
      let seed = 5L in
      let payloads = Dopc.Payload.lower applied c ~seed in
      Alcotest.(check int)
        (c.chain_id ^ ": one payload per step")
        (List.length c.steps) (List.length payloads);
      let vars =
        List.sort_uniq compare
          (List.concat_map
             (fun (s : Dopc.Chain.step) ->
               List.map (fun (w : Dopc.Chain.write) -> w.target) s.writes)
             c.steps)
      in
      let layout =
        Dopc.Payload.layout applied ~func:c.func ~buffer:c.buffer ~vars
          ~slots:c.slots ~seed
      in
      let gaddrs = Attacks.Layout.global_addrs applied.prog in
      List.iter2
        (fun (s : Dopc.Chain.step) payload ->
          List.iter
            (fun (w : Dopc.Chain.write) ->
              let off = List.assoc w.target layout in
              let expect =
                match w.value with
                | Dopc.Chain.Const v -> v
                | Dopc.Chain.Addr_of_global g ->
                    Int64.of_int (List.assoc g gaddrs)
              in
              Alcotest.(check int64)
                (Printf.sprintf "%s: %s at offset %d" c.chain_id w.target off)
                expect (le64_at payload off))
            s.writes)
        c.steps payloads)
    chains

(* ------------------------------------------------------------------ *)
(* Determinism properties *)

(* Acceptance bar: verdicts identical on the reference and bytecode
   engines, across >= 50 execution seeds, for every synthesized chain,
   with and without hardening. *)
let test_verdict_engine_parity_50_seeds () =
  List.iter
    (fun name ->
      let prog = prog_of name in
      let _, chains = synth name in
      List.iter
        (fun d ->
          let applied = apply d prog in
          List.iter
            (fun (c : Dopc.Chain.t) ->
              for i = 0 to 49 do
                let seed = Int64.of_int (17 + (1000 * i)) in
                let vr =
                  Dopc.Exec.run_chain ~backend:ref_backend applied c ~seed
                in
                let vb =
                  Dopc.Exec.run_chain ~backend:bc_backend applied c ~seed
                in
                Alcotest.(check string)
                  (Printf.sprintf "%s/%s seed %Ld" name c.chain_id seed)
                  (Attacks.Verdict.to_string vr)
                  (Attacks.Verdict.to_string vb)
              done)
            chains)
        [ Defenses.Defense.No_defense; smokestack_full ])
    [ "stack-direct"; "stack-indirect" ]

let run_e17 jobs =
  Sched.Pool.with_pool ~jobs @@ fun pool ->
  Harness.Offense.run ~pool ~backend:Machine.Backend.reference
    ~workloads:[ "stack-direct"; "stack-indirect" ]
    ~trials:3 ~brute_budget:40 ()

let test_e17_jobs_invariant () =
  let a = run_e17 1 and b = run_e17 8 in
  Alcotest.(check string)
    "E17 report byte-identical at --jobs 1 and 8"
    (Harness.Output.to_markdown (Harness.Offense.output a))
    (Harness.Output.to_markdown (Harness.Offense.output b))

let test_e17_shapes () =
  let t = run_e17 4 in
  Alcotest.(check bool) "a chain lands undefended" true
    (t.Harness.Offense.landed_unhardened >= 1);
  Alcotest.(check int) "no chain survives full hardening" 0
    t.Harness.Offense.full_successes;
  Alcotest.(check bool) "every landing chain statically grounded" true
    t.Harness.Offense.all_grounded

let () =
  Engine.Backend.install ();
  Analysis.Validate.install ();
  Alcotest.run "offense"
    [
      ( "plan",
        [
          Alcotest.test_case "stack-direct dispatch loop" `Quick
            test_plan_stack_direct_dispatch_loop;
          Alcotest.test_case "stack-indirect aim write" `Quick
            test_plan_stack_indirect_aim_write;
          Alcotest.test_case "input-free is undeliverable" `Quick
            test_plan_input_free_is_undeliverable;
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "max-chains prefix" `Quick
            test_plan_max_chains_is_prefix;
        ] );
      ( "payload",
        [ Alcotest.test_case "lowering round trip" `Quick test_lower_round_trip ]
      );
      ( "determinism",
        [
          Alcotest.test_case "engine parity over 50 seeds" `Slow
            test_verdict_engine_parity_50_seeds;
          Alcotest.test_case "E17 jobs invariance" `Slow test_e17_jobs_invariant;
          Alcotest.test_case "E17 shapes" `Slow test_e17_shapes;
        ] );
    ]
