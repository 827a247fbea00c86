(* Tests for the deterministic fault-injection layer: plan spec
   round-trips, the SP 800-90B health tests, the RNG degradation chain
   (fail-secure and fail-open), runtime integration (trace events,
   structured Detected outcomes), and the property the whole layer is
   built around — no fault plan can make either execution backend raise
   an uncaught exception. *)

let ref_backend = Machine.Backend.reference
let bc_backend = Engine.Backend.backend

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Plan specs *)

let canonical_specs =
  [
    "rng:stuck=0xdeadbeef@4";
    "rng:ones@1";
    "rng:bias=8@2..100";
    "rng:lat=250@1";
    "rng:off@never";
    "mem:stack:64:3@2000";
    "mem:data:16:1@1500..1600";
    "intr:ss.fid_assert:xor=0x1@1";
  ]

let test_spec_round_trip () =
  List.iter
    (fun spec ->
      match Fault.Plan.of_spec spec with
      | Ok p -> Alcotest.(check string) spec spec (Fault.Plan.to_spec p)
      | Error e -> Alcotest.failf "%s: %s" spec e)
    canonical_specs

let test_random_plans_round_trip () =
  for seed = 0 to 199 do
    let p = Fault.Plan.random ~seed:(Int64.of_int seed) in
    let p' = Fault.Plan.random ~seed:(Int64.of_int seed) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d reproducible" seed)
      true (p = p');
    match Fault.Plan.of_spec (Fault.Plan.to_spec p) with
    | Ok q ->
        Alcotest.(check string)
          (Printf.sprintf "seed %d round-trips" seed)
          (Fault.Plan.to_spec p) (Fault.Plan.to_spec q)
    | Error e -> Alcotest.failf "seed %d: %s: %s" seed (Fault.Plan.to_spec p) e
  done

let test_spec_errors () =
  List.iter
    (fun spec ->
      match Fault.Plan.of_spec spec with
      | Ok _ -> Alcotest.failf "%S should not parse" spec
      | Error _ -> ())
    [
      "";
      "bogus";
      "rng:ones" (* no trigger *);
      "rng:stuck@1" (* missing value *);
      "rng:bias=64@1" (* bias out of range *);
      "mem:stack:1:9@5" (* bit out of range *);
      "mem:heap:1:3@5" (* unsupported segment *);
      "intr:ss.rand@1" (* missing xor *);
      "rng:ones@5..2" (* empty window *);
    ]

let test_trigger_fires () =
  let open Fault.Plan in
  Alcotest.(check bool) "never" false (fires Never 1);
  Alcotest.(check bool) "at below" false (fires (At 3) 2);
  Alcotest.(check bool) "at on" true (fires (At 3) 3);
  Alcotest.(check bool) "at after" true (fires (At 3) 99);
  let w = Window { from_ = 2; until = 4 } in
  Alcotest.(check (list bool))
    "window edges" [ false; true; true; true; false ]
    (List.map (fires w) [ 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Health tests (SP 800-90B continuous checks) *)

let feed_ok h v =
  match Rng.Health.feed h v with
  | None -> ()
  | Some r -> Alcotest.failf "unexpected health failure: %s" r

let test_health_repetition_count () =
  let h = Rng.Health.create () in
  (* cutoff 5: four identical samples pass, the fifth fails *)
  for _ = 1 to 4 do
    feed_ok h 0xABL
  done;
  match Rng.Health.feed h 0xABL with
  | Some _ -> ()
  | None -> Alcotest.fail "run of 5 identical samples must fail the RCT"

let test_health_adaptive_proportion () =
  let h = Rng.Health.create () in
  (* distinct full-width values (RCT silent) whose low byte never
     changes: the APT must fail at the cutoff (20 hits) *)
  let failed_at = ref 0 in
  (try
     for i = 1 to 100 do
       match Rng.Health.feed h (Int64.of_int ((i * 256) + 7)) with
       | Some _ ->
           failed_at := i;
           raise Exit
       | None -> ()
     done
   with Exit -> ());
  Alcotest.(check int) "APT fails at its cutoff" 20 !failed_at

let test_health_passes_healthy_stream () =
  let h = Rng.Health.create () in
  let rng = Sutil.Simrng.create ~seed:99L in
  for _ = 1 to 5000 do
    feed_ok h (Sutil.Simrng.next_u64 rng)
  done

let test_health_sticky_and_reset () =
  let h = Rng.Health.create () in
  for _ = 1 to 5 do
    ignore (Rng.Health.feed h 0L)
  done;
  Alcotest.(check bool)
    "failure is sticky" true
    (Rng.Health.feed h 1L <> None);
  Rng.Health.reset h;
  feed_ok h 1L

(* ------------------------------------------------------------------ *)
(* Generator degradation chain *)

let entropy seed = Crypto.Entropy.create ~seed

let test_fail_secure_rdrand_falls_back_to_aes10 () =
  let gen =
    Rng.Generator.create Rng.Scheme.Rdrand ~entropy:(entropy 5L)
  in
  let seen = ref None in
  Rng.Generator.set_on_degrade gen (fun d -> seen := Some d);
  (* stuck-at-all-ones hardware: the RCT trips within 5 draws and the
     generator must keep serving draws from AES-10 *)
  Rng.Generator.set_tamper gen (fun ~scheme:_ ~draw:_ _ ->
      Rng.Generator.Value (-1L));
  let draws = List.init 32 (fun _ -> Rng.Generator.next_u64 gen) in
  Alcotest.(check bool)
    "post-degradation draws are not all-ones" true
    (List.exists (fun v -> v <> -1L) draws);
  Alcotest.(check bool)
    "current scheme is AES-10" true
    (Rng.Generator.current_scheme gen = Rng.Scheme.aes10);
  (match Rng.Generator.degradations gen with
  | [ { from_scheme; to_scheme; _ } ] ->
      Alcotest.(check bool) "from RDRAND" true (from_scheme = Rng.Scheme.Rdrand);
      Alcotest.(check bool) "to AES-10" true (to_scheme = Some Rng.Scheme.aes10)
  | ds -> Alcotest.failf "expected exactly one degradation, got %d" (List.length ds));
  match !seen with
  | Some _ -> ()
  | None -> Alcotest.fail "on_degrade was not called"

let test_fail_secure_chain_exhausted_aborts () =
  let gen =
    Rng.Generator.create Rng.Scheme.aes10 ~entropy:(entropy 6L)
  in
  Rng.Generator.set_tamper gen (fun ~scheme:_ ~draw:_ _ ->
      Rng.Generator.Unavailable);
  (* AES-10 is already the last software fallback: its failure must
     abort rather than silently serve weak randomness *)
  (match Rng.Generator.next_u64 gen with
  | _ -> Alcotest.fail "expected Source_failed"
  | exception Rng.Generator.Source_failed _ -> ());
  match Rng.Generator.degradations gen with
  | [ { to_scheme = None; _ } ] -> ()
  | _ -> Alcotest.fail "abort must be recorded as a degradation to None"

let test_fail_open_degrades_to_pseudo_and_keeps_running () =
  let gen =
    Rng.Generator.create ~policy:Rng.Generator.Fail_open Rng.Scheme.Rdrand
      ~entropy:(entropy 7L)
  in
  Rng.Generator.set_tamper gen (fun ~scheme:_ ~draw:_ _ ->
      Rng.Generator.Unavailable);
  let _ = List.init 64 (fun _ -> Rng.Generator.next_u64 gen) in
  Alcotest.(check bool)
    "fail-open lands on pseudo" true
    (Rng.Generator.current_scheme gen = Rng.Scheme.Pseudo);
  match Rng.Generator.degradations gen with
  | [ { to_scheme = Some Rng.Scheme.Pseudo; _ } ] -> ()
  | _ -> Alcotest.fail "expected one degradation to pseudo"

(* ------------------------------------------------------------------ *)
(* Runtime integration: a hardened program under injection *)

let src =
  {|
int leaf(int n) {
  int a[4];
  int b;
  b = n;
  a[0] = b + 1;
  a[1] = a[0] + b;
  return a[1];
}
int main() {
  int i;
  int acc;
  i = 0;
  acc = 0;
  while (i < 400) {
    acc = acc + leaf(i);
    i = i + 1;
  }
  if (acc > 0) { return 0; }
  return 1;
}
|}

let prog = lazy (Minic.Driver.compile src)

let run_hardened ?plan ?(policy = Rng.Generator.Fail_secure)
    ?(scheme = Rng.Scheme.Rdrand) ?(backend = ref_backend) ~seed () =
  let config = Smokestack.Config.with_scheme scheme Smokestack.Config.default in
  let h = Smokestack.Harden.harden config (Lazy.force prog) in
  let entropy = Crypto.Entropy.create ~seed in
  let gen = Rng.Generator.create ~policy scheme ~entropy in
  let st = Smokestack.Harden.prepare h ~entropy ~gen in
  let degr_events = ref [] in
  st.Machine.Exec.on_event <-
    Some
      (function
      | Machine.Exec.Ev_rng_degraded _ as e -> degr_events := e :: !degr_events
      | _ -> ());
  let armed = Option.map (fun p -> Fault.Inject.arm ~gen p st) plan in
  let outcome, stats = backend.Machine.Backend.run ~fuel:50_000_000 st in
  (outcome, stats, gen, armed, List.rev !degr_events)

let plan_of spec =
  match Fault.Plan.of_spec spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad spec %s: %s" spec e

let test_stuck_rdrand_emits_trace_event_and_completes () =
  let outcome, _, gen, armed, events =
    run_hardened ~plan:(plan_of "rng:ones@1") ~seed:11L ()
  in
  Alcotest.(check bool)
    "run completes cleanly on the fallback" true
    (outcome = Machine.Exec.Exit 0L);
  Alcotest.(check bool)
    "injections fired" true
    (Fault.Inject.fired (Option.get armed) > 0);
  Alcotest.(check bool)
    "degraded to AES-10" true
    (Rng.Generator.current_scheme gen = Rng.Scheme.aes10);
  match events with
  | [ Machine.Exec.Ev_rng_degraded { from_; to_; reason } ] ->
      Alcotest.(check string) "from RDRAND" "RDRAND" from_;
      Alcotest.(check (option string)) "to AES-10" (Some "AES-10") to_;
      Alcotest.(check bool) "reason is not empty" true (String.length reason > 0)
  | es -> Alcotest.failf "expected one Ev_rng_degraded, got %d" (List.length es)

let test_chain_exhaustion_is_a_detected_outcome () =
  (* AES-10 source reporting itself unavailable: the fail-secure abort
     must surface as a structured Detected outcome, not an exception *)
  let outcome, _, _, _, events =
    run_hardened ~plan:(plan_of "rng:off@1") ~scheme:Rng.Scheme.aes10 ~seed:12L
      ()
  in
  (match outcome with
  | Machine.Exec.Detected { reason; _ } ->
      Alcotest.(check bool)
        "reason names the source failure" true
        (contains reason "randomness source failed")
  | o ->
      Alcotest.failf "expected Detected, got %s"
        (Machine.Exec.outcome_to_string o));
  match events with
  | [ Machine.Exec.Ev_rng_degraded { to_ = None; _ } ] -> ()
  | _ -> Alcotest.fail "expected one fail-secure abort event"

let test_fid_corruption_detected () =
  let outcome, _, _, _, _ =
    run_hardened
      ~plan:(plan_of "intr:ss.fid_assert:xor=0x1@1")
      ~scheme:Rng.Scheme.aes10 ~seed:13L ()
  in
  match outcome with
  | Machine.Exec.Detected { reason; _ } ->
      Alcotest.(check bool)
        "FID check fired" true
        (contains reason "identifier mismatch")
  | o ->
      Alcotest.failf "expected Detected, got %s"
        (Machine.Exec.outcome_to_string o)

let test_never_firing_plan_is_observation_free () =
  let obs plan =
    let outcome, stats, _, _, _ = run_hardened ?plan ~seed:14L () in
    ( Machine.Exec.outcome_to_string outcome,
      stats.Machine.Exec.output,
      stats.Machine.Exec.cycles,
      stats.Machine.Exec.instr_count )
  in
  let clean = obs None in
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (spec ^ " leaves observables bit-identical")
        true
        (obs (Some (plan_of spec)) = clean))
    [ "rng:ones@never"; "mem:stack:64:3@never"; "intr:ss.rand:xor=0xff@never" ]

(* The acceptance property: over >= 50 seeded random plans, on both
   backends, every run ends in a structured outcome — no plan can make
   the engine raise — and the two engines agree on the result. *)
let test_property_structured_outcomes_both_backends () =
  for seed = 1 to 60 do
    let plan = Fault.Plan.random ~seed:(Int64.of_int seed) in
    let run backend =
      match
        run_hardened ~plan ~seed:(Int64.of_int (1000 + seed)) ~backend ()
      with
      | outcome, stats, _, armed, _ ->
          ( Machine.Exec.outcome_to_string outcome,
            stats.Machine.Exec.output,
            stats.Machine.Exec.cycles,
            stats.Machine.Exec.instr_count,
            Fault.Inject.fired (Option.get armed) )
      | exception e ->
          Alcotest.failf "seed %d (%s) on %s: uncaught %s" seed
            (Fault.Plan.to_spec plan) backend.Machine.Backend.label
            (Printexc.to_string e)
    in
    let r = run ref_backend in
    let b = run bc_backend in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d (%s): engines agree" seed
         (Fault.Plan.to_spec plan))
      true (r = b)
  done

(* ------------------------------------------------------------------ *)
(* The E13 chaos experiment *)

let test_chaos_deterministic_across_pool_widths () =
  let render jobs =
    Sched.Pool.with_pool ~jobs @@ fun pool ->
    Harness.Output.to_markdown
      (Harness.Chaos.output (Harness.Chaos.run ~pool ~workloads:[ "mcf" ] ()))
  in
  Alcotest.(check string)
    "E13 report identical at widths 1 and 8" (render 1) (render 8)

let test_chaos_detects_and_scores_policies () =
  let t = Harness.Chaos.run ~workloads:[ "mcf" ] () in
  List.iter
    (fun (r : Harness.Chaos.row) ->
      Alcotest.(check bool) (r.cspec ^ ": engines agree") true r.cengines_agree)
    t.rows;
  Alcotest.(check bool)
    "health tests catch the RNG corruption family" true
    (List.for_all
       (fun (r : Harness.Chaos.row) ->
         (not (String.equal r.cfamily "rng")) || (not r.ccorrupting)
         || r.cfired = 0 || r.ccaught)
       t.rows);
  match t.policy with
  | [ secure; open_ ] ->
      Alcotest.(check string) "secure row" "fail-secure" secure.ppolicy;
      Alcotest.(check string) "open row" "fail-open" open_.ppolicy;
      Alcotest.(check bool)
        "fail-open is measurably weaker" true
        (open_.pscore < secure.pscore);
      Alcotest.(check (float 0.)) "fail-open collapses to one attempt" 1.
        open_.pscore
  | _ -> Alcotest.fail "expected exactly two policy rows"

(* Where [mem:*] plans land, pinned to the addresses the plan grammar
   produced when every segment was allocated eagerly: the byte offset
   is reduced modulo the segment's extent, whatever part of it happens
   to be materialized.  Each row is (plan, flipped address, XOR mask),
   on mcf; the flipped byte is found by diffing against an identically
   prepared, unarmed state. *)
let flip_goldens =
  [
    ("mem:stack:0:0@1", 0xcfffff, 1);
    ("mem:stack:1:7@1", 0xcffffe, 128);
    ("mem:stack:64:3@1", 0xcfffbf, 8);
    ("mem:stack:4095:1@1", 0xcff000, 2);
    ("mem:stack:4096:2@1", 0xcfefff, 4);
    ("mem:stack:65537:5@1", 0xcefffe, 32);
    ("mem:stack:1048575:6@1", 0xc00000, 64);
    ("mem:stack:1048576:4@1", 0xcfffff, 16);
    ("mem:stack:3000000:3@1", 0xc2393f, 8);
    ("mem:data:0:0@1", 0x200000, 1);
    ("mem:data:16:1@1", 0x200010, 2);
    ("mem:data:100:2@1", 0x200064, 4);
    ("mem:data:1000:7@1", 0x2003e8, 128);
    ("mem:data:4096:5@1", 0x201000, 32);
    ("mem:data:123456:6@1", 0x203180, 64);
  ]

let test_mem_flip_addresses_pinned () =
  let prog = Lazy.force (Option.get (Apps.Spec.find "mcf")).program in
  List.iter
    (fun (spec, want_addr, want_mask) ->
      let plan = Result.get_ok (Fault.Plan.of_spec spec) in
      let clean = Machine.Exec.prepare prog and st = Machine.Exec.prepare prog in
      ignore (Fault.Inject.arm plan st);
      let s =
        Machine.Memory.segment st.mem (List.nth (String.split_on_char ':' spec) 1)
      in
      (* fire the @1 trigger on one access, before anything else has
         materialized the target *)
      st.instr_count <- 1;
      ignore (Machine.Memory.load st.mem ~width:1 s.base);
      let a = Machine.Memory.read_bytes clean.mem s.base s.size
      and b = Machine.Memory.read_bytes st.mem s.base s.size in
      let rec diffs i acc =
        if i < 0 then acc else diffs (i - 1) (if a.[i] <> b.[i] then i :: acc else acc)
      in
      match diffs (s.size - 1) [] with
      | [ i ] ->
          Alcotest.(check (pair int int)) spec (want_addr, want_mask)
            (s.base + i, Char.code a.[i] lxor Char.code b.[i])
      | diff -> Alcotest.failf "%s: %d bytes differ" spec (List.length diff))
    flip_goldens

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "canonical specs round-trip" `Quick
            test_spec_round_trip;
          Alcotest.test_case "200 random plans round-trip" `Quick
            test_random_plans_round_trip;
          Alcotest.test_case "spec errors" `Quick test_spec_errors;
          Alcotest.test_case "trigger windows" `Quick test_trigger_fires;
        ] );
      ( "health",
        [
          Alcotest.test_case "repetition count" `Quick
            test_health_repetition_count;
          Alcotest.test_case "adaptive proportion" `Quick
            test_health_adaptive_proportion;
          Alcotest.test_case "healthy stream passes" `Quick
            test_health_passes_healthy_stream;
          Alcotest.test_case "sticky + reset" `Quick test_health_sticky_and_reset;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "fail-secure RDRAND -> AES-10" `Quick
            test_fail_secure_rdrand_falls_back_to_aes10;
          Alcotest.test_case "fail-secure chain exhausted" `Quick
            test_fail_secure_chain_exhausted_aborts;
          Alcotest.test_case "fail-open -> pseudo" `Quick
            test_fail_open_degrades_to_pseudo_and_keeps_running;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "stuck RDRAND: event + completion" `Quick
            test_stuck_rdrand_emits_trace_event_and_completes;
          Alcotest.test_case "chain exhaustion is Detected" `Quick
            test_chain_exhaustion_is_a_detected_outcome;
          Alcotest.test_case "FID corruption detected" `Quick
            test_fid_corruption_detected;
          Alcotest.test_case "never-firing plans" `Quick
            test_never_firing_plan_is_observation_free;
          Alcotest.test_case "60 random plans: structured outcomes" `Slow
            test_property_structured_outcomes_both_backends;
          Alcotest.test_case "mem flip addresses pinned" `Quick
            test_mem_flip_addresses_pinned;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "deterministic across widths" `Slow
            test_chaos_deterministic_across_pool_widths;
          Alcotest.test_case "detection + policy scoring" `Slow
            test_chaos_detects_and_scores_policies;
        ] );
    ]
