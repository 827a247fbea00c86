(* Tests for the vulnerable app models and workloads: benign behaviour
   under every defense, and the attack expectations of §II-C / §V-C. *)

let smokestack = Defenses.Defense.Smokestack Smokestack.Config.default
let backend = Machine.Backend.reference
let verdict (attack : Apps.Dopkit.attack) applied ~seed =
  (attack ~backend applied ~seed).verdict

let success_rate attack applied ~n ~seed0 =
  let ok = ref 0 in
  for i = 0 to n - 1 do
    match attack applied ~seed:(Int64.of_int (seed0 + (997 * i))) with
    | Attacks.Verdict.Success -> incr ok
    | _ -> ()
  done;
  float_of_int !ok /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Synthetic variants *)

let test_synth_benign_under_every_defense () =
  List.iter
    (fun (v : Apps.Synth.variant) ->
      let prog = Lazy.force v.program in
      List.iter
        (fun d ->
          let applied = Defenses.Defense.apply ~seed:3L d prog in
          let outcome, stats = Apps.Runner.run_chunks ~backend applied ~seed:1L ~chunks:[] in
          Alcotest.(check bool)
            (v.vname ^ " under " ^ Defenses.Defense.name d)
            true
            (outcome = Machine.Exec.Exit 0L
            && stats.output = Apps.Synth.benign_output))
        Defenses.Defense.all)
    Apps.Synth.variants

let test_synth_attacks_succeed_undefended () =
  List.iter
    (fun (v : Apps.Synth.variant) ->
      let applied =
        Defenses.Defense.apply Defenses.Defense.No_defense (Lazy.force v.program)
      in
      match verdict v.attack applied ~seed:7L with
      | Attacks.Verdict.Success -> ()
      | verdict ->
          Alcotest.failf "%s undefended: %s" v.vname
            (Attacks.Verdict.to_string verdict))
    Apps.Synth.variants

let test_synth_attacks_mostly_blocked_by_smokestack () =
  List.iter
    (fun (v : Apps.Synth.variant) ->
      let applied =
        Defenses.Defense.apply ~seed:3L smokestack (Lazy.force v.program)
      in
      let rate = success_rate (verdict v.attack) applied ~n:15 ~seed0:100 in
      Alcotest.(check bool)
        (Printf.sprintf "%s rate %.2f < 0.35" v.vname rate)
        true (rate < 0.35))
    Apps.Synth.variants

let test_synth_direct_attacks_beat_stack_base () =
  (* relative-distance attacks go through ASLR-style defenses *)
  List.iter
    (fun name ->
      let v = Option.get (Apps.Synth.find name) in
      let applied =
        Defenses.Defense.apply ~seed:3L Defenses.Defense.Stack_base
          (Lazy.force v.program)
      in
      match verdict v.attack applied ~seed:7L with
      | Attacks.Verdict.Success -> ()
      | verdict -> Alcotest.failf "%s: %s" name (Attacks.Verdict.to_string verdict))
    [ "stack-direct"; "data-direct"; "heap-direct" ]

let test_synth_indirect_attacks_blocked_by_stack_base () =
  (* absolute-address attacks are the ones ASLR does stop (sans leak) *)
  List.iter
    (fun name ->
      let v = Option.get (Apps.Synth.find name) in
      let applied =
        Defenses.Defense.apply ~seed:3L Defenses.Defense.Stack_base
          (Lazy.force v.program)
      in
      match verdict v.attack applied ~seed:7L with
      | Attacks.Verdict.Success -> Alcotest.failf "%s should be blocked" name
      | _ -> ())
    [ "data-indirect"; "heap-indirect" ]

let test_stack_direct_is_a_dop_chain () =
  (* the stack-direct exploit really is ~22 chained gadget invocations:
     all of them are needed *)
  let v = Option.get (Apps.Synth.find "stack-direct") in
  let prog = Lazy.force v.program in
  let applied = Defenses.Defense.apply Defenses.Defense.No_defense prog in
  (* sanity: attack works, then a truncated chain must not *)
  (match verdict v.attack applied ~seed:7L with
  | Attacks.Verdict.Success -> ()
  | verdict -> Alcotest.failf "full chain: %s" (Attacks.Verdict.to_string verdict));
  let vr0 = List.assoc "vr0" (Attacks.Layout.global_addrs applied.prog) in
  Alcotest.(check bool) "virtual register file is in the data segment" true
    (vr0 >= 0x200000 && vr0 < 0x400000)

(* ------------------------------------------------------------------ *)
(* librelp *)

let test_librelp_benign () =
  let applied =
    Defenses.Defense.apply Defenses.Defense.No_defense (Lazy.force Apps.Librelp.program)
  in
  let outcome, stats =
    Apps.Runner.run_chunks ~backend applied ~seed:1L ~chunks:Apps.Librelp.benign_chunks
  in
  Alcotest.(check bool) "exits" true (outcome = Machine.Exec.Exit 0L);
  Alcotest.(check bool) "does NOT leak the key" false
    (Apps.Dopkit.goal_in_output Apps.Librelp.key_leak_marker stats)

let test_librelp_attack_matrix () =
  let prog = Lazy.force Apps.Librelp.program in
  List.iter
    (fun (d, expect_static) ->
      let applied = Defenses.Defense.apply ~seed:3L d prog in
      let got =
        match verdict Apps.Librelp.attack_static applied ~seed:7L with
        | Attacks.Verdict.Success -> true
        | _ -> false
      in
      Alcotest.(check bool)
        ("static attack vs " ^ Defenses.Defense.name d)
        expect_static got)
    [
      (Defenses.Defense.No_defense, true);
      (Defenses.Defense.Stack_base, true);
      (Defenses.Defense.Forrest_pad, true);
      (Defenses.Defense.Canary, true);
      (* non-linear jump over the guard *)
    ]

let test_librelp_disclosure_beats_static_defenses_not_smokestack () =
  let prog = Lazy.force Apps.Librelp.program in
  let ok d seed =
    let applied = Defenses.Defense.apply ~seed:3L d prog in
    match Apps.Librelp.attack_disclosure ~backend applied ~seed with
    | Attacks.Verdict.Success -> true
    | _ -> false
  in
  Alcotest.(check bool) "beats stack-base" true (ok Defenses.Defense.Stack_base 9L);
  Alcotest.(check bool) "beats forrest" true (ok Defenses.Defense.Forrest_pad 9L);
  let applied = Defenses.Defense.apply ~seed:3L smokestack prog in
  let rate = success_rate (Apps.Librelp.attack_disclosure ~backend) applied ~n:20 ~seed0:500 in
  Alcotest.(check bool)
    (Printf.sprintf "smokestack disclosure rate %.2f small" rate)
    true (rate < 0.25)

let test_librelp_state_disclosure_breaks_pseudo_only () =
  (* Table I's security column, executed: the prediction attack is
     deterministic against the pseudo scheme and powerless otherwise *)
  let prog = Lazy.force Apps.Librelp.program in
  let rate scheme =
    let config = Smokestack.Config.with_scheme scheme Smokestack.Config.default in
    let applied =
      Defenses.Defense.apply ~seed:3L (Defenses.Defense.Smokestack config) prog
    in
    success_rate (Apps.Librelp.attack_pseudo_state ~backend) applied ~n:16 ~seed0:4000
  in
  (* the prediction is exact; the residue is exploit physics — some
     drawn layouts put the target beyond the single snprintf jump, and
     the dispatcher grants only four invocations per run (~94%) *)
  let p = rate Rng.Scheme.Pseudo in
  Alcotest.(check bool)
    (Printf.sprintf "pseudo falls almost every run (%.2f)" p)
    true (p >= 0.75);
  Alcotest.(check (float 0.001)) "AES-10 unpredictable" 0.0
    (rate Rng.Scheme.aes10);
  Alcotest.(check (float 0.001)) "RDRAND unpredictable" 0.0
    (rate Rng.Scheme.Rdrand)

let test_probe_then_exploit_needs_a_window () =
  let prog = Lazy.force Apps.Librelp.program in
  let rate interval =
    let config = { Smokestack.Config.default with redraw_interval = interval } in
    let applied =
      Defenses.Defense.apply ~seed:3L (Defenses.Defense.Smokestack config) prog
    in
    success_rate (Apps.Librelp.attack_probe_then_exploit ~backend) applied ~n:12 ~seed0:6000
  in
  let per_invocation = rate 1 in
  let windowed = rate 64 in
  Alcotest.(check bool)
    (Printf.sprintf "per-invocation stays low (%.2f)" per_invocation)
    true (per_invocation <= 0.2);
  Alcotest.(check bool)
    (Printf.sprintf "a 64-request window re-opens the attack (%.2f > %.2f)"
       windowed per_invocation)
    true
    (windowed > per_invocation +. 0.1)

let test_librelp_smokestack_brute_rate_low () =
  let prog = Lazy.force Apps.Librelp.program in
  let applied = Defenses.Defense.apply ~seed:3L smokestack prog in
  let rate = success_rate (verdict Apps.Librelp.attack_static) applied ~n:40 ~seed0:900 in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.2f < 0.2" rate)
    true (rate < 0.2)

(* ------------------------------------------------------------------ *)
(* wireshark + proftpd *)

let test_wireshark_matrix () =
  let prog = Lazy.force Apps.Wireshark.program in
  let applied0 = Defenses.Defense.apply Defenses.Defense.No_defense prog in
  let outcome, stats =
    Apps.Runner.run_chunks ~backend applied0 ~seed:1L ~chunks:Apps.Wireshark.benign_chunks
  in
  Alcotest.(check bool) "benign" true
    (outcome = Machine.Exec.Exit 0L
    && not (Apps.Dopkit.goal_in_output Apps.Wireshark.granted stats));
  (match verdict Apps.Wireshark.attack applied0 ~seed:7L with
  | Attacks.Verdict.Success -> ()
  | v -> Alcotest.failf "undefended: %s" (Attacks.Verdict.to_string v));
  let hardened = Defenses.Defense.apply ~seed:3L smokestack prog in
  let rate = success_rate (verdict Apps.Wireshark.attack) hardened ~n:15 ~seed0:300 in
  Alcotest.(check bool) (Printf.sprintf "rate %.2f < 0.2" rate) true (rate < 0.2)

let test_proftpd_three_exploits () =
  let prog = Lazy.force Apps.Proftpd.program in
  let applied0 = Defenses.Defense.apply Defenses.Defense.No_defense prog in
  let outcome, stats =
    Apps.Runner.run_chunks ~backend applied0 ~seed:1L ~chunks:Apps.Proftpd.benign_chunks
  in
  Alcotest.(check bool) "benign says bye" true
    (outcome = Machine.Exec.Exit 0L && stats.output = "bye\n");
  List.iter
    (fun (name, attack) ->
      (match attack applied0 ~seed:7L with
      | Attacks.Verdict.Success -> ()
      | v -> Alcotest.failf "%s undefended: %s" name (Attacks.Verdict.to_string v));
      let hardened = Defenses.Defense.apply ~seed:3L smokestack prog in
      let rate = success_rate attack hardened ~n:10 ~seed0:700 in
      Alcotest.(check bool)
        (Printf.sprintf "%s rate %.2f < 0.2" name rate)
        true (rate < 0.2))
    [
      ("key-extraction", verdict Apps.Proftpd.attack_key_extraction);
      ("bot", verdict Apps.Proftpd.attack_bot);
      ("mem-permissions", verdict Apps.Proftpd.attack_memperm);
    ]

let test_proftpd_detection_dominates () =
  (* the paper: Smokestack *detected* the ProFTPD attacks (FID) *)
  let prog = Lazy.force Apps.Proftpd.program in
  let hardened = Defenses.Defense.apply ~seed:3L smokestack prog in
  let detected = ref 0 in
  let n = 12 in
  for i = 0 to n - 1 do
    match
      verdict Apps.Proftpd.attack_memperm hardened ~seed:(Int64.of_int (100 + (31 * i)))
    with
    | Attacks.Verdict.Detected _ -> incr detected
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "detections %d/%d > 1/3" !detected n)
    true
    (!detected * 3 > n)

(* ------------------------------------------------------------------ *)
(* Optimization must not change the security story *)

let test_optimized_builds_keep_the_security_story () =
  (* the -O1 pipeline may not delete the vulnerable copies (they flow
     through builtins) — an optimized librelp is exactly as exploitable
     undefended and as protected hardened *)
  let prog = Minic.Driver.compile ~optimize:true Apps.Librelp.source in
  let applied0 = Defenses.Defense.apply Defenses.Defense.No_defense prog in
  (match verdict Apps.Librelp.attack_static applied0 ~seed:7L with
  | Attacks.Verdict.Success -> ()
  | v -> Alcotest.failf "-O1 undefended: %s" (Attacks.Verdict.to_string v));
  let hardened = Defenses.Defense.apply ~seed:3L smokestack prog in
  let rate = success_rate (verdict Apps.Librelp.attack_static) hardened ~n:15 ~seed0:8000 in
  Alcotest.(check bool)
    (Printf.sprintf "-O1 hardened rate %.2f < 0.25" rate)
    true (rate < 0.25);
  (* benign behaviour preserved at -O1 under hardening, too *)
  let outcome, stats =
    Apps.Runner.run_chunks ~backend hardened ~seed:1L ~chunks:Apps.Librelp.benign_chunks
  in
  Alcotest.(check bool) "benign -O1 hardened" true
    (outcome = Machine.Exec.Exit 0L
    && not (Apps.Dopkit.goal_in_output Apps.Librelp.key_leak_marker stats))

(* ------------------------------------------------------------------ *)
(* Workloads *)

let test_workloads_run_and_are_deterministic () =
  List.iter
    (fun (w : Apps.Spec.workload) ->
      let s1 = Harness.Workbench.baseline ~backend w in
      let applied =
        Defenses.Defense.apply Defenses.Defense.No_defense (Lazy.force w.program)
      in
      let _, s2 = Harness.Workbench.run ~backend applied ~seed:99L w in
      Alcotest.(check string) (w.wname ^ " deterministic") s1.output s2.output;
      Alcotest.(check bool) (w.wname ^ " does real work") true (s1.cycles > 100_000.))
    Apps.Spec.all

let test_workload_count_and_kinds () =
  Alcotest.(check int) "12 SPEC-like kernels" 12 (List.length Apps.Spec.spec);
  Alcotest.(check int) "2 I/O apps" 2 (List.length Apps.Spec.io)

let () =
  Alcotest.run "apps"
    [
      ( "synth",
        [
          Alcotest.test_case "benign under every defense" `Quick
            test_synth_benign_under_every_defense;
          Alcotest.test_case "succeed undefended" `Quick
            test_synth_attacks_succeed_undefended;
          Alcotest.test_case "blocked by smokestack" `Quick
            test_synth_attacks_mostly_blocked_by_smokestack;
          Alcotest.test_case "direct beats stack-base" `Quick
            test_synth_direct_attacks_beat_stack_base;
          Alcotest.test_case "indirect blocked by stack-base" `Quick
            test_synth_indirect_attacks_blocked_by_stack_base;
          Alcotest.test_case "stack-direct is a chain" `Quick
            test_stack_direct_is_a_dop_chain;
        ] );
      ( "librelp",
        [
          Alcotest.test_case "benign" `Quick test_librelp_benign;
          Alcotest.test_case "attack matrix" `Quick test_librelp_attack_matrix;
          Alcotest.test_case "disclosure" `Quick
            test_librelp_disclosure_beats_static_defenses_not_smokestack;
          Alcotest.test_case "smokestack brute rate" `Quick
            test_librelp_smokestack_brute_rate_low;
          Alcotest.test_case "state disclosure breaks pseudo only" `Quick
            test_librelp_state_disclosure_breaks_pseudo_only;
          Alcotest.test_case "probe-then-exploit needs a window" `Quick
            test_probe_then_exploit_needs_a_window;
        ] );
      ( "wireshark+proftpd",
        [
          Alcotest.test_case "wireshark matrix" `Quick test_wireshark_matrix;
          Alcotest.test_case "proftpd exploits" `Quick test_proftpd_three_exploits;
          Alcotest.test_case "proftpd detection" `Quick test_proftpd_detection_dominates;
        ] );
      ( "optimized",
        [
          Alcotest.test_case "security story survives -O1" `Quick
            test_optimized_builds_keep_the_security_story;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "run deterministically" `Slow
            test_workloads_run_and_are_deterministic;
          Alcotest.test_case "inventory" `Quick test_workload_count_and_kinds;
        ] );
    ]
