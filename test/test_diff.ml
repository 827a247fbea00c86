(* Differential testing: for randomly generated MiniC programs, the
   baseline build, the -O1 build, every baseline defense and the
   Smokestack-hardened builds must all behave identically.  The
   interpreter is the oracle; any divergence is a bug in the optimizer,
   a defense pass, or the Smokestack instrumentation. *)

let run_prog prog =
  let st = Machine.Exec.prepare prog in
  let outcome, stats = Machine.Exec.run ~fuel:50_000_000 st in
  (outcome, stats.output)

let run_applied (applied : Defenses.Defense.applied) seed =
  let st = applied.fresh_state (Crypto.Entropy.create ~seed) in
  let outcome, stats = Machine.Exec.run ~fuel:50_000_000 st in
  (outcome, stats.output)

let check_seed seed =
  let src = Minic.Progen.generate ~seed in
  let fail stage what =
    QCheck2.Test.fail_reportf "seed %Ld, %s: %s@.--- program ---@.%s" seed stage
      what src
  in
  let prog = Minic.Driver.compile src in
  let outcome, expected = run_prog prog in
  (match outcome with
  | Machine.Exec.Exit 0L -> ()
  | o -> fail "baseline" (Machine.Exec.outcome_to_string o));
  (* -O1 *)
  let opt = Minic.Driver.compile ~optimize:true src in
  let o_outcome, o_out = run_prog opt in
  if o_outcome <> Machine.Exec.Exit 0L then
    fail "-O1" (Machine.Exec.outcome_to_string o_outcome);
  if o_out <> expected then
    fail "-O1" (Printf.sprintf "output %S, baseline %S" o_out expected);
  (* defenses, on both the -O0 and -O1 programs *)
  List.iter
    (fun base_prog ->
      List.iter
        (fun d ->
          let applied = Defenses.Defense.apply ~seed d base_prog in
          let d_outcome, d_out = run_applied applied (Int64.add seed 17L) in
          if d_outcome <> Machine.Exec.Exit 0L then
            fail (Defenses.Defense.name d)
              (Machine.Exec.outcome_to_string d_outcome);
          if d_out <> expected then
            fail (Defenses.Defense.name d)
              (Printf.sprintf "output %S, baseline %S" d_out expected))
        (Defenses.Defense.all
        @ [
            Defenses.Defense.Smokestack
              (Smokestack.Config.with_scheme Rng.Scheme.Pseudo
                 Smokestack.Config.default);
            Defenses.Defense.Smokestack
              {
                Smokestack.Config.default with
                pow2_pbox = false;
                round_up_allocs = false;
              };
          ]))
    [ prog; opt ];
  true

let prop_differential =
  QCheck2.Test.make ~count:60 ~name:"all builds of a random program agree"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun n -> check_seed (Int64.of_int n))

let test_generator_wellformed () =
  (* every generated program compiles and runs clean on its own *)
  List.iteri
    (fun i src ->
      match Minic.Driver.compile_result src with
      | Error e -> Alcotest.failf "program %d does not compile: %s\n%s" i e src
      | Ok prog -> (
          match run_prog prog with
          | Machine.Exec.Exit 0L, _ -> ()
          | o, _ ->
              Alcotest.failf "program %d: %s\n%s" i
                (Machine.Exec.outcome_to_string o) src))
    (Minic.Progen.generate_many ~seed:424242L 40)

let test_generator_deterministic () =
  Alcotest.(check string)
    "same seed, same program"
    (Minic.Progen.generate ~seed:7L)
    (Minic.Progen.generate ~seed:7L);
  Alcotest.(check bool)
    "different seeds differ" true
    (Minic.Progen.generate ~seed:7L <> Minic.Progen.generate ~seed:8L)

let () =
  Alcotest.run "differential"
    [
      ( "progen",
        [
          Alcotest.test_case "well-formed" `Quick test_generator_wellformed;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest ~long:false prop_differential ] );
    ]
