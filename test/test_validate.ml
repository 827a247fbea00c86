(* Tests for the static hardening validator (Analysis.Validate): clean
   validation over every application workload and a Progen corpus,
   each seeded mutation class caught with the right rule, runnable
   mutants still executing bit-identically on both engines, and the
   selective-hardening path (elision oracle, draw-preserving
   bit-identity, validator certification of elisions). *)

module Validate = Analysis.Validate
module Harden = Smokestack.Harden
module Config = Smokestack.Config

let () = Validate.install ()
let () = Engine.Backend.install ()

let default = Config.default

let harden_pair ?(config = default) prog =
  let hardened = Harden.harden config prog in
  (prog, hardened)

let check_clean what ?original hardened =
  match Validate.check ?original hardened with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: unexpected violations:\n%s" what
        (String.concat "\n" (List.map Validate.violation_to_string vs))

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let rule = Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (Validate.rule_to_string r))
    ( = )

(* ------------------------------------------------------------------ *)
(* Clean validation: applications *)

let test_clean_workloads () =
  List.iter
    (fun (w : Apps.Spec.workload) ->
      let prog = Lazy.force w.program in
      let original, hardened = harden_pair prog in
      check_clean w.wname ~original hardened)
    Apps.Spec.all

let test_clean_synth () =
  List.iter
    (fun (v : Apps.Synth.variant) ->
      let prog = Lazy.force v.program in
      let original, hardened = harden_pair prog in
      check_clean v.vname ~original hardened)
    Apps.Synth.variants

(* ...and under every non-default scheme knob that changes codegen. *)
let test_clean_config_axes () =
  let prog () = Lazy.force (Option.get (Apps.Spec.find "proftpd-io")).program in
  let axes =
    [
      ("no-pow2", { default with pow2_pbox = false });
      ("no-sharing", { default with share_tables = false });
      ("no-roundup", { default with round_up_allocs = false });
      ("no-fid", { default with fid_checks = false });
      ("dynamic-heavy", { default with max_exhaustive_vars = 2 });
    ]
  in
  List.iter
    (fun (label, config) ->
      let original, hardened = harden_pair ~config (prog ()) in
      check_clean label ~original hardened)
    axes

(* ------------------------------------------------------------------ *)
(* Clean validation: Progen corpus *)

let test_clean_progen () =
  for seed = 1 to 50 do
    let src = Minic.Progen.generate ~seed:(Int64.of_int seed) in
    let prog = Minic.Driver.compile src in
    let original, hardened = harden_pair prog in
    check_clean (Printf.sprintf "progen seed %d" seed) ~original hardened
  done

(* ------------------------------------------------------------------ *)
(* Mutation catalogue: every class applicable and caught *)

let mutation_bases =
  [ "proftpd-io"; "gobmk"; "perlbench" ]
  |> List.map (fun n -> (n, Option.get (Apps.Spec.find n)))

let mutant_caught what mutation hardened =
  match Validate.mutate ~seed:7L mutation hardened with
  | None -> None
  | Some (mutant, desc) ->
      let vs = Validate.check mutant in
      if vs = [] then
        Alcotest.failf "%s: mutation %S went undetected" what desc;
      let expected = Validate.expected_rule mutation in
      if
        not
          (List.exists (fun (v : Validate.violation) -> v.rule = expected) vs)
      then
        Alcotest.failf "%s: mutation %S caught, but not by %s (got: %s)" what
          desc
          (Validate.rule_to_string expected)
          (String.concat "; " (List.map Validate.violation_to_string vs));
      Some mutant

let test_mutations_caught () =
  List.iter
    (fun m ->
      let applied =
        List.exists
          (fun (wname, (w : Apps.Spec.workload)) ->
            let prog = Lazy.force w.program in
            let hardened = Harden.harden default prog in
            Option.is_some
              (mutant_caught
                 (Printf.sprintf "%s on %s" (Validate.mutation_to_string m)
                    wname)
                 m hardened))
          mutation_bases
      in
      if not applied then
        Alcotest.failf "mutation %s applied to no base workload"
          (Validate.mutation_to_string m))
    Validate.all_mutations

(* A mutation must be caught by its own rule and, for the IR-level
   ones, leave a program both engines still execute identically: the
   validator flags statically what execution would not reliably
   surface. *)
let test_runnable_mutants_both_engines () =
  let v = Option.get (Apps.Synth.find "stack-direct") in
  let prog = Lazy.force v.program in
  let hardened = Harden.harden default prog in
  List.iter
    (fun m ->
      match
        mutant_caught
          (Printf.sprintf "%s on stack-direct" (Validate.mutation_to_string m))
          m hardened
      with
      | None ->
          Alcotest.failf "mutation %s inapplicable to stack-direct"
            (Validate.mutation_to_string m)
      | Some mutant ->
          let results =
            List.map
              (fun (b : Machine.Backend.t) ->
                let st =
                  Harden.prepare mutant
                    ~entropy:(Crypto.Entropy.create ~seed:11L)
                in
                b.run st)
              [ Machine.Backend.reference; Engine.Backend.backend ]
          in
          (match results with
          | [ r1; r2 ] ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: engines agree on the mutant"
                   (Validate.mutation_to_string m))
                true (r1 = r2)
          | _ -> assert false))
    [ Validate.Raw_alloca; Validate.Spill_index; Validate.Drop_fid_assert ]

(* ------------------------------------------------------------------ *)
(* Harden integration (satellite b): the pipeline reports which
   post-condition failed, naming rule and function *)

let test_harden_reports_validation_failure () =
  let src = "int main() { int a[4]; a[0] = 1; return a[0]; }" in
  let prog = Minic.Driver.compile src in
  Harden.set_validator (fun ~original:_ _ ->
      Error "[fid-pairing] main: synthetic violation");
  let raised =
    try
      ignore (Harden.harden default prog);
      None
    with Failure msg -> Some msg
  in
  Validate.install ();
  match raised with
  | None -> Alcotest.fail "validation failure did not raise"
  | Some msg ->
      Alcotest.(check bool)
        "message distinguishes the post-condition failure" true
        (contains msg "pipeline post-condition validation failed");
      Alcotest.(check bool)
        "message names rule and function" true
        (contains msg "[fid-pairing] main")

(* ------------------------------------------------------------------ *)
(* Selective hardening *)

let test_elidable_nonempty () =
  let found =
    List.exists
      (fun (w : Apps.Spec.workload) ->
        Validate.elidable (Lazy.force w.program) <> [])
      Apps.Spec.all
  in
  Alcotest.(check bool) "some workload has elidable functions" true found

let selective = Config.with_selective true default

let test_selective_validates () =
  List.iter
    (fun (w : Apps.Spec.workload) ->
      let prog = Lazy.force w.program in
      if Validate.elidable prog <> [] then begin
        let hardened = Harden.harden selective prog in
        Alcotest.(check bool)
          (w.wname ^ ": elisions happened")
          true (hardened.elided <> []);
        check_clean (w.wname ^ " selective") ~original:prog hardened;
        (* the saving is real: elided functions have no binding *)
        Alcotest.(check bool)
          (w.wname ^ ": pbox no larger")
          true
          (Harden.pbox_bytes hardened
          <= Harden.pbox_bytes (Harden.harden default prog))
      end)
    Apps.Spec.all

(* Draw-preserving elision: identical entropy, identical outcome and
   output on every workload, full vs selective.  Only outcome/output
   can be compared — elided functions keep their original (smaller)
   frames, so cycle and RSS accounting legitimately differ. *)
let test_selective_bit_identical () =
  List.iter
    (fun (w : Apps.Spec.workload) ->
      let prog = Lazy.force w.program in
      let run config =
        let applied =
          Defenses.Defense.apply ~seed:3L
            (Defenses.Defense.Smokestack config) prog
        in
        Apps.Runner.run_chunks ~backend:Machine.Backend.reference applied ~seed:23L
          ~chunks:(Harness.Workbench.chunks_of_input w.input)
      in
      let o_full, s_full = run default in
      let o_sel, s_sel = run selective in
      Alcotest.(check bool)
        (w.wname ^ ": outcome identical")
        true (o_full = o_sel);
      Alcotest.(check string)
        (w.wname ^ ": output identical")
        s_full.output s_sel.output)
    Apps.Spec.all

(* Certification is not rubber-stamping: force-eliding an unsafe
   function must be rejected. *)
let test_bogus_elision_rejected () =
  let v = Option.get (Apps.Synth.find "stack-direct") in
  let prog = Lazy.force v.program in
  let unsafe =
    (* a function the analyzer puts in a DOP pair *)
    let analyses = Analysis.Funcan.analyze prog in
    let pairs = Analysis.Dop.enumerate prog analyses in
    (List.hd pairs).buf_func
  in
  Harden.set_elision_oracle (fun _ -> [ unsafe ]);
  let raised =
    try
      ignore (Harden.harden selective prog);
      false
    with Failure _ -> true
  in
  Validate.install ();
  Alcotest.(check bool) "unsafe elision rejected" true raised

(* ------------------------------------------------------------------ *)
(* Missing-original and JSON surface *)

let test_missing_original () =
  let w =
    List.find
      (fun (w : Apps.Spec.workload) ->
        Validate.elidable (Lazy.force w.program) <> [])
      Apps.Spec.all
  in
  let prog = Lazy.force w.program in
  let hardened = Harden.harden selective prog in
  if hardened.elided = [] then ()
  else
    let vs = Validate.check hardened in
    Alcotest.(check bool)
      "elision uncertifiable without the original" true
      (List.exists
         (fun (v : Validate.violation) -> v.rule = Validate.Elision)
         vs)

let test_json_rendering () =
  let v =
    {
      Validate.rule = Validate.Pbox_soundness;
      func = "f\"1";
      row = Some 3;
      detail = "overlap";
    }
  in
  let json = Sutil.Json.to_string (Validate.violation_to_json v) in
  Alcotest.(check bool)
    "escapes and fields present" true
    (json = "{\"rule\":\"pbox-soundness\",\"func\":\"f\\\"1\",\"row\":3,\"detail\":\"overlap\"}");
  let report = Sutil.Json.to_string (Validate.report_json ~name:"w" []) in
  Alcotest.(check bool)
    "clean report" true
    (report = "{\"program\":\"w\",\"clean\":true,\"violations\":[]}");
  Alcotest.check rule "round-trip mutation rule" Validate.Index_hygiene
    (Validate.expected_rule
       (Option.get (Validate.mutation_of_string "spill-index")))

let () =
  Alcotest.run "validate"
    [
      ( "clean",
        [
          Alcotest.test_case "all workloads validate" `Slow
            test_clean_workloads;
          Alcotest.test_case "synthetic variants validate" `Quick
            test_clean_synth;
          Alcotest.test_case "config axes validate" `Quick
            test_clean_config_axes;
          Alcotest.test_case "progen corpus validates" `Slow test_clean_progen;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "every class caught" `Slow test_mutations_caught;
          Alcotest.test_case "runnable mutants, both engines" `Quick
            test_runnable_mutants_both_engines;
        ] );
      ( "integration",
        [
          Alcotest.test_case "harden reports failures" `Quick
            test_harden_reports_validation_failure;
          Alcotest.test_case "json rendering" `Quick test_json_rendering;
        ] );
      ( "selective",
        [
          Alcotest.test_case "elidable nonempty" `Quick test_elidable_nonempty;
          Alcotest.test_case "selective validates" `Slow
            test_selective_validates;
          Alcotest.test_case "bit-identical outcomes" `Slow
            test_selective_bit_identical;
          Alcotest.test_case "bogus elision rejected" `Quick
            test_bogus_elision_rejected;
          Alcotest.test_case "missing original" `Quick test_missing_original;
        ] );
    ]
