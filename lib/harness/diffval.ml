(* Differential validation of execution engines.

   Runs the same prepared program under two backends and demands
   bit-identical observables: outcome, program output, and every stats
   field including the float cycle count (charges are order-sensitive,
   so even a reassociated addition shows up here).  Used by
   test/test_engine.ml as a tier-1 gate and available from
   experiments/bench drivers as a preflight check. *)

type mismatch = { case : string; field : string; expected : string; actual : string }
type report = { cases : int; mismatches : mismatch list }

let ok r = r.mismatches = []

let mismatch_to_string m =
  Printf.sprintf "%s: %s differs: %s (reference) vs %s" m.case m.field
    m.expected m.actual

let report_to_string r =
  if ok r then Printf.sprintf "%d case(s), all observables identical" r.cases
  else
    Printf.sprintf "%d case(s), %d mismatch(es):\n%s" r.cases
      (List.length r.mismatches)
      (String.concat "\n" (List.map mismatch_to_string r.mismatches))

(* Compare field by field so a mismatch names the first observable that
   diverged instead of a bare "stats differ".  The comparison runs on
   the Store.Entry.exec rendering of each run: the outcome as its
   string, cycles bit-exact, output verbatim. *)
let compare_exec ~case (e1 : Store.Entry.exec) (e2 : Store.Entry.exec) =
  let s1 = e1.stats and s2 = e2.stats in
  let diffs = ref [] in
  let check field expected actual =
    if not (String.equal expected actual) then
      diffs := { case; field; expected; actual } :: !diffs
  in
  check "outcome" e1.outcome e2.outcome;
  (* %h prints the exact bit pattern, so off-by-one-ulp cycle drift is
     caught and printed unambiguously *)
  check "cycles" (Printf.sprintf "%h" s1.cycles) (Printf.sprintf "%h" s2.cycles);
  check "instr_count" (string_of_int s1.instr_count)
    (string_of_int s2.instr_count);
  check "call_count" (string_of_int s1.call_count) (string_of_int s2.call_count);
  check "max_depth" (string_of_int s1.max_depth) (string_of_int s2.max_depth);
  check "max_frame_bytes"
    (string_of_int s1.max_frame_bytes)
    (string_of_int s2.max_frame_bytes);
  check "rss_bytes" (string_of_int s1.rss_bytes) (string_of_int s2.rss_bytes);
  check "output" (String.escaped s1.output) (String.escaped s2.output);
  List.rev !diffs

let compare_observables ~case run1 run2 =
  compare_exec ~case (Store.Entry.exec_of_run run1) (Store.Entry.exec_of_run run2)

let backends () =
  (* referencing the engine's backend value (not just the registry)
     guarantees the library is linked into whoever uses Diffval *)
  (Machine.Backend.reference, Engine.Backend.backend)

let check_applied ~case ~chunks applied =
  let reference, bytecode = backends () in
  let run backend =
    Apps.Runner.run_chunks ~backend ~fuel:400_000_000 applied ~seed:1L ~chunks
  in
  compare_observables ~case (run reference) (run bytecode)

let defenses_under_test =
  [ Defenses.Defense.No_defense;
    Defenses.Defense.Smokestack Smokestack.Config.default ]

let check_apps () =
  let mismatches =
    List.concat_map
      (fun (w : Apps.Spec.workload) ->
        List.concat_map
          (fun d ->
            let case = Printf.sprintf "%s/%s" w.wname (Defenses.Defense.name d) in
            let applied = Defenses.Defense.apply ~seed:3L d (Lazy.force w.program) in
            check_applied ~case ~chunks:(Workbench.chunks_of_input w.input) applied)
          defenses_under_test)
      Apps.Spec.all
  in
  { cases = List.length Apps.Spec.all * List.length defenses_under_test;
    mismatches }

let check_progen ?(pool = Sched.Pool.sequential) ~seed count =
  let reference, bytecode = backends () in
  let mismatches =
    List.concat
      (Sched.Pool.run_all pool
         (List.map
            (fun (pseed, source) ->
              let case = Printf.sprintf "progen seed %Ld" pseed in
              Sched.Job.v ~id:("diffval/" ^ case) ~seed:pseed (fun () ->
                  let prog = Minic.Driver.compile source in
                  let leg (backend : Machine.Backend.t) =
                    backend.run ~fuel:2_000_000 (Machine.Exec.prepare prog)
                  in
                  compare_observables ~case (leg reference) (leg bytecode)))
            (List.of_seq (Minic.Progen.range ~seed count))))
  in
  { cases = count; mismatches }
