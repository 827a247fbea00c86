(* smokestackc — compile, harden, inspect and run MiniC programs.

   Examples:
     smokestackc run examples/programs/hello.c
     smokestackc run --scheme AES-10 --seed 42 prog.c --input "bytes"
     smokestackc run --harden --chaos rng:ones@1 prog.c
     smokestackc ir --harden prog.c
     smokestackc pbox prog.c
     smokestackc serve --sessions 1300 --jobs 8 --json serve.json

   Exit codes: 0 clean exit, 1 non-zero program exit (or internal
   error), 2 usage error, 3 compile/parse error, 4 runtime fault
   (memory fault, defense detection, fuel exhaustion, timeout). *)

open Cmdliner

let one_line = Cli.one_line
let exit_usage = Cli.exit_usage
let exit_compile = 3
let exit_runtime = 4

(* The EXIT STATUS section of every subcommand's --help. *)
let exits =
  Cli.exits ~ok:"on a clean exit."
    ~failure:
      "on a non-zero program exit, a failed check (a lint violation, a \
       batch-verdict mismatch, an ungrounded chain) or an internal error."
    [
      Cmd.Exit.info exit_compile ~doc:"on a compile or parse error.";
      Cmd.Exit.info exit_runtime
        ~doc:
          "on a runtime fault: a memory fault, a defense detection, fuel \
           exhaustion or a timeout.";
    ]

let usage_fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "smokestackc: %s\n" msg;
      exit exit_usage)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every --json PATH emitter: one indented document plus a newline. *)
let write_json path doc =
  Out_channel.with_open_text path (fun oc ->
      Sutil.Json.doc_to_channel ~indent:true oc doc)

let compile ?optimize path =
  match Minic.Driver.compile_result ?optimize (read_file path) with
  | Ok prog -> prog
  | Error msg ->
      Printf.eprintf "smokestackc: %s\n" (one_line msg);
      exit exit_compile

let opt_flag =
  Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Run the -O1 pipeline before anything else")

let scheme_conv =
  let parse s =
    match Rng.Scheme.of_name s with
    | Some scheme -> Ok scheme
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S (pseudo, AES-1..AES-10, RDRAND)" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Rng.Scheme.name s))

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Rng.Scheme.aes10
    & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Randomness scheme for hardening")

let seed_arg =
  Arg.(
    value & opt int64 1L
    & info [ "seed" ] ~docv:"SEED" ~doc:"Entropy seed (reproducible runs)")

let harden_flag =
  Arg.(value & flag & info [ "harden" ] ~doc:"Apply Smokestack before the action")

let input_arg =
  Arg.(
    value & opt string ""
    & info [ "input" ] ~docv:"BYTES" ~doc:"Bytes served to read_input")

let no_fid =
  Arg.(value & flag & info [ "no-fid-checks" ] ~doc:"Disable function-identifier checks")

let config_of scheme no_fid =
  let c = Smokestack.Config.with_scheme scheme Smokestack.Config.default in
  if no_fid then { c with Smokestack.Config.fid_checks = false } else c

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Print a call/intrinsic trace after the run")

let engine_arg =
  Arg.(
    value
    & opt Cli.engine Machine.Backend.Reference
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,ref) (tree-walking reference \
           interpreter) or $(b,bytecode) (compiled dispatch loop; \
           identical observable behaviour, several times faster)")

let jobs_arg =
  Arg.(
    value
    & opt (some Cli.jobs) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for multi-seed runs (default: the host's \
           recommended domain count).  Output order is seed order \
           regardless of N.")

let seeds_arg =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"N"
        ~doc:
          "Run N times with consecutive seeds (seed, seed+1, ...); \
           combined with $(b,--jobs) the runs execute in parallel.  \
           N=1 (the default) is the plain single run.")

let chaos_conv =
  let parse s =
    match Fault.Plan.of_spec s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Fault.Plan.to_spec p))

let chaos_arg =
  Arg.(
    value
    & opt (some chaos_conv) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          "Arm one deterministic fault plan before the run, e.g. \
           $(b,rng:ones@1) (RDRAND stuck at all-ones from the first \
           draw), $(b,mem:stack:64:3@2000) (flip bit 3 of the byte 64 \
           below the stack top at instruction 2000), \
           $(b,intr:ss.fid_assert:xor=1@1).  $(b,rng:*) plans require \
           $(b,--harden) (they tamper with the Smokestack generator).")

let fail_open_flag =
  Arg.(
    value & flag
    & info [ "fail-open" ]
        ~doc:
          "On a randomness-source health failure, degrade to the \
           memory-resident pseudo scheme and keep running instead of the \
           fail-secure RDRAND -> AES-10 -> abort chain (for studying what \
           silent degradation costs; see E13)")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock limit per run; a run still going after $(docv) \
           seconds is abandoned and reported timed out (exit code 4).  \
           With $(b,--seeds), each seed's run is supervised \
           independently and the others still complete.")

let run_cmd =
  let action file harden scheme seed input no_fid optimize trace engine jobs
      seeds chaos fail_open timeout =
    if seeds < 1 then usage_fail "run: --seeds must be >= 1";
    (match timeout with
    | Some t when t <= 0. -> usage_fail "run: --timeout must be positive"
    | _ -> ());
    (match chaos with
    | Some { Fault.Plan.site = Fault.Plan.Rng _; _ } when not harden ->
        usage_fail
          "run: rng fault plans tamper with the Smokestack generator — add \
           --harden"
    | _ -> ());
    let prog = compile ~optimize file in
    let policy =
      if fail_open then Rng.Generator.Fail_open else Rng.Generator.Fail_secure
    in
    (* One self-contained run; returns everything to print so that
       multi-seed runs can execute as pool jobs and still emit output in
       seed order. *)
    let run_one ~seed =
      let entropy = Crypto.Entropy.create ~seed in
      let st, gen =
        if harden then
          let hardened =
            Smokestack.Harden.harden (config_of scheme no_fid) prog
          in
          let gen = Rng.Generator.create ~policy scheme ~entropy in
          (Smokestack.Harden.prepare hardened ~entropy ~gen, Some gen)
        else (Machine.Exec.prepare prog, None)
      in
      let armed = Option.map (fun p -> Fault.Inject.arm ?gen p st) chaos in
      let tracer =
        if trace then begin
          let t = Machine.Trace.create () in
          Machine.Trace.attach t st;
          Some t
        end
        else None
      in
      Machine.Exec.set_input st (Machine.Exec.input_string input);
      let backend = Machine.Backend.find engine in
      let outcome, stats = backend.Machine.Backend.run st in
      let chaos_str =
        Option.map
          (fun a ->
            Printf.sprintf "-- chaos %s: fired=%d%s\n"
              (Fault.Plan.to_spec (Fault.Inject.plan a))
              (Fault.Inject.fired a)
              (match gen with
              | Some g when Rng.Generator.degradations g <> [] ->
                  " degraded: "
                  ^ String.concat ", "
                      (List.map Rng.Generator.degradation_to_string
                         (Rng.Generator.degradations g))
              | _ -> ""))
          armed
      in
      ( outcome,
        stats,
        Option.map (Machine.Trace.render ~limit:200) tracer,
        chaos_str )
    in
    let code_of_outcome = function
      | Machine.Exec.Exit 0L -> 0
      | Machine.Exec.Exit _ -> 1
      | Machine.Exec.Fault _ | Machine.Exec.Detected _
      | Machine.Exec.Fuel_exhausted ->
          exit_runtime
    in
    let print_result ?seed
        (outcome, (stats : Machine.Exec.stats), trace_str, chaos_str) =
      Option.iter prerr_string trace_str;
      Option.iter (Printf.printf "== seed %Ld ==\n") seed;
      print_string stats.output;
      Printf.printf
        "-- %s | cycles=%.0f instrs=%d calls=%d max-depth=%d max-frame=%dB rss=%s\n"
        (Machine.Exec.outcome_to_string outcome)
        stats.cycles stats.instr_count stats.call_count stats.max_depth
        stats.max_frame_bytes
        (Sutil.Texttable.fmt_bytes stats.rss_bytes);
      Option.iter print_string chaos_str;
      code_of_outcome outcome
    in
    if seeds = 1 && timeout = None then exit (print_result (run_one ~seed))
    else begin
      let seed_list = List.init seeds (fun i -> Int64.add seed (Int64.of_int i)) in
      let batch =
        List.map
          (fun seed ->
            Sched.Job.v ~id:(Printf.sprintf "run/seed-%Ld" seed) ~seed
              (fun () -> run_one ~seed))
          seed_list
      in
      let width =
        match jobs with
        | Some j -> j
        | None -> min seeds (Domain.recommended_domain_count ())
      in
      let outcomes =
        Sched.Pool.with_pool ~jobs:width @@ fun pool ->
        match timeout with
        | None -> List.map (fun v -> Sched.Job.Ok v) (Sched.Pool.run_all pool batch)
        | Some t -> Sched.Pool.run_all_outcomes ~timeout:t pool batch
      in
      let with_seed = seeds > 1 in
      let code =
        List.fold_left2
          (fun code sd outcome ->
            match outcome with
            | Sched.Job.Ok result ->
                let seed = if with_seed then Some sd else None in
                max code (print_result ?seed result)
            | Sched.Job.Timed_out ->
                if with_seed then Printf.printf "== seed %Ld ==\n" sd;
                Printf.printf "-- timed out after %.1f s\n"
                  (Option.get timeout);
                max code exit_runtime
            | Sched.Job.Failed e ->
                Printf.eprintf "smokestackc: error: seed %Ld: %s\n" sd
                  (one_line (Printexc.to_string e));
                max code 1)
          0 seed_list outcomes
      in
      exit code
    end
  in
  Cmd.v (Cmd.info ~exits "run" ~doc:"Compile and execute a MiniC program")
    Term.(
      const action $ file_arg $ harden_flag $ scheme_arg $ seed_arg $ input_arg
      $ no_fid $ opt_flag $ trace_flag $ engine_arg $ jobs_arg $ seeds_arg
      $ chaos_arg $ fail_open_flag $ timeout_arg)

let ir_cmd =
  let action file harden scheme no_fid optimize =
    let prog = compile ~optimize file in
    let prog =
      if harden then
        (Smokestack.Harden.harden (config_of scheme no_fid) prog).prog
      else prog
    in
    print_string (Ir.Printer.prog_to_string prog)
  in
  Cmd.v
    (Cmd.info ~exits "ir" ~doc:"Print the (optionally hardened) IR")
    Term.(const action $ file_arg $ harden_flag $ scheme_arg $ no_fid $ opt_flag)

let pbox_cmd =
  let action file scheme no_fid =
    let prog = compile file in
    let hardened = Smokestack.Harden.harden (config_of scheme no_fid) prog in
    let pbox = hardened.pbox in
    Printf.printf "P-BOX: %d shared table(s), %d dynamically-decoded frame(s), %s of read-only data\n"
      (Array.length pbox.entries) (Array.length pbox.dyns)
      (Sutil.Texttable.fmt_bytes (Smokestack.Pbox.blob_bytes pbox));
    Array.iteri
      (fun i (e : Smokestack.Pbox.entry) ->
        Printf.printf "  table %d: %d slot(s), %d rows (%d materialized), users: %s\n"
          i
          (Array.length e.canon_meta)
          (Array.length e.table.offsets)
          e.rows_materialized
          (String.concat ", " e.users))
      pbox.entries;
    Array.iter
      (fun (d : Smokestack.Pbox.dyn_binding) ->
        Printf.printf "  dynamic: %s — %d slots, decoded per invocation\n"
          d.dfunc (Array.length d.metas))
      pbox.dyns
  in
  Cmd.v
    (Cmd.info ~exits "pbox" ~doc:"Summarize the P-BOX a program would get")
    Term.(const action $ file_arg $ scheme_arg $ no_fid)

let layouts_cmd =
  let action file func runs scheme seed =
    let prog = compile file in
    let hardened = Smokestack.Harden.harden (config_of scheme false) prog in
    (* observe the chosen frame layout by dumping the offsets the
       runtime would select across invocations *)
    let binding = Smokestack.Pbox.binding hardened.pbox func in
    match binding with
    | None ->
        Printf.eprintf "function %s has no permuted frame\n" func;
        exit 1
    | Some b -> (
        match b.mode with
        | Smokestack.Pbox.Dynamic _ ->
            Printf.printf "%s uses per-invocation dynamic decoding (%d slots)\n"
              func b.n_orig
        | Smokestack.Pbox.Exhaustive _ ->
            let entropy = Crypto.Entropy.create ~seed in
            let gen =
              Rng.Generator.create hardened.config.scheme ~entropy
            in
            let e = Option.get (Smokestack.Pbox.entry_of hardened.pbox b) in
            for _ = 1 to runs do
              let idx =
                Int64.to_int
                  (Int64.logand (Rng.Generator.next_u64 gen)
                     (Int64.of_int (e.rows_materialized - 1)))
              in
              let offs = Smokestack.Pbox.lookup_offsets hardened.pbox b ~row:idx in
              Printf.printf "row %5d: [%s]\n" idx
                (String.concat "; "
                   (Array.to_list (Array.map string_of_int offs)))
            done)
  in
  let func_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FUNC" ~doc:"Function whose layouts to sample")
  in
  let runs_arg =
    Arg.(value & opt int 5 & info [ "runs" ] ~docv:"N" ~doc:"Invocations to sample")
  in
  Cmd.v
    (Cmd.info ~exits "layouts"
       ~doc:"Sample the per-invocation frame layouts of a function")
    Term.(const action $ file_arg $ func_arg $ runs_arg $ scheme_arg $ seed_arg)

let entropy_cmd =
  let action file scheme =
    let prog = compile file in
    let hardened = Smokestack.Harden.harden (config_of scheme false) prog in
    List.iter
      (fun fname ->
        match Smokestack.Pbox.binding hardened.pbox fname with
        | None -> ()
        | Some b ->
            let t = Smokestack.Entropy_an.of_binding hardened.pbox b in
            Printf.printf
              "%s: %d layout(s) considered, %d distinct; whole-frame \
               collision %.2e; expected brute-force attempts %.0f\n"
              fname t.rows t.distinct_layouts t.whole_frame_collision
              t.expected_bruteforce_attempts;
            List.iter
              (fun (s : Smokestack.Entropy_an.slot_stats) ->
                Printf.printf
                  "    slot %d: %d possible offsets, collision %.3f\n"
                  s.orig_index s.distinct_offsets s.collision_probability)
              t.per_slot)
      (Smokestack.Harden.permuted_functions hardened)
  in
  Cmd.v
    (Cmd.info ~exits "entropy"
       ~doc:"Quantify each permuted frame's layout entropy (what a \
             brute-force attacker faces)")
    Term.(const action $ file_arg $ scheme_arg)

(* Shared by analyze and lint: resolve a --workload name to a program. *)
let builtin_workload w =
  match w with
  | "librelp" -> (w, Lazy.force Apps.Librelp.program)
  | "wireshark" -> (w, Lazy.force Apps.Wireshark.program)
  | "proftpd" -> (w, Lazy.force Apps.Proftpd.program)
  | _ -> (
      match Apps.Spec.find w with
      | Some wl -> (wl.Apps.Spec.wname, Lazy.force wl.Apps.Spec.program)
      | None -> (
          match Apps.Synth.find w with
          | Some v -> (v.Apps.Synth.vname, Minic.Driver.compile v.Apps.Synth.source)
          | None ->
              usage_fail
                "unknown workload %S (an apps name like gobmk, a real-vuln \
                 program: librelp, wireshark, proftpd, or a synth variant \
                 like stack-direct)"
                w))

let workload_opt cmd =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "%s a built-in workload (an application kernel like $(b,gobmk) \
              or $(b,proftpd-io), or a synthetic pentest variant like \
              $(b,stack-direct)) instead of a file"
             cmd))

let analyze_cmd =
  let action file workload progen leaky json_path no_score leaks optimize =
    if leaky && progen = None then
      usage_fail "analyze: --leaky needs --progen SEED";
    let name, prog =
      match (workload, progen, file) with
      | Some w, _, _ -> builtin_workload w
      | None, Some s, _ ->
          let src =
            if leaky then Minic.Progen.generate_leaky ~seed:s
            else Minic.Progen.generate ~seed:s
          in
          ( Printf.sprintf "progen-%s%Ld" (if leaky then "leaky-" else "") s,
            Minic.Driver.compile ~optimize src )
      | None, None, Some f -> (Filename.basename f, compile ~optimize f)
      | None, None, None ->
          usage_fail "analyze: need a FILE, --workload NAME or --progen SEED"
    in
    let report = Analysis.Report.analyze_prog ~name ~score:(not no_score) prog in
    Option.iter
      (fun path -> write_json path (Analysis.Report.to_json report))
      json_path;
    if leaks then begin
      (* leak-focused view: just the disclosure flows and their cost *)
      let lk = report.Analysis.Report.leakage in
      Printf.printf "layout leaks: %s\n" name;
      if lk.Analysis.Leakan.leaks = [] then
        print_endline "  none (no layout secret reaches an observable sink)"
      else begin
        List.iter
          (fun l -> Printf.printf "  %s\n" (Analysis.Leakan.leak_to_string l))
          lk.Analysis.Leakan.leaks;
        List.iter
          (fun (fb : Analysis.Leakan.func_bits) ->
            Printf.printf "  %s: %.2f of %.2f frame bits disclosed\n"
              fb.fname fb.leaked_bits fb.frame_bits)
          lk.Analysis.Leakan.funcs;
        Printf.printf "  total: %.2f bits\n" lk.Analysis.Leakan.total_bits;
        if not no_score then begin
          print_endline "  easiest pair per defense (blind -> leak-guided):";
          List.iter2
            (fun (d, blind) (_, guided) ->
              Printf.printf "    %-12s %s -> %s\n" d
                (if blind = infinity then "-"
                 else Format.asprintf "%.3g" blind)
                (if guided = infinity then "-"
                 else Format.asprintf "%.3g" guided))
            (Analysis.Report.summary report)
            (Analysis.Report.summary_degraded report)
        end
      end
    end
    else print_string (Analysis.Report.to_text report)
  in
  let file_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")
  in
  let workload_arg = workload_opt "Analyze" in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the full report as JSON to $(docv)")
  in
  let no_score_arg =
    Arg.(
      value & flag
      & info [ "no-score" ]
          ~doc:
            "Skip the per-defense expected-attempts scoring (classification \
             and pair enumeration only; much faster)")
  in
  let leaks_arg =
    Arg.(
      value & flag
      & info [ "leaks" ]
          ~doc:
            "Leak-focused view: print only the interprocedural layout-leak \
             flows (source, channel, sink, bits) and the leak-degraded \
             expected attempts per defense")
  in
  let progen_arg =
    Arg.(
      value
      & opt (some int64) None
      & info [ "progen" ] ~docv:"SEED"
          ~doc:
            "Analyze the Progen-generated program of $(docv) instead of a \
             file (the differential-testing corpus shape)")
  in
  let leaky_arg =
    Arg.(
      value & flag
      & info [ "leaky" ]
          ~doc:
            "With $(b,--progen): generate the leak-shaped variant — the \
             same program with a layout disclosure (an address print or a \
             comparison oracle) spliced in before the checksum; a \
             ground-truth positive for the leak analyzer")
  in
  Cmd.v
    (Cmd.info ~exits "analyze"
       ~doc:
         "Static DOP attack-surface analysis: classify stack slots as \
          overflow-capable or safe, enumerate (buffer, victim) DOP pairs, \
          and score expected brute-force attempts per defense")
    Term.(
      const action $ file_opt $ workload_arg $ progen_arg $ leaky_arg
      $ json_arg $ no_score_arg $ leaks_arg $ opt_flag)

let lint_cmd =
  let action file workload progen scheme no_fid selective seed json_path mutate
      leaks optimize =
    let name, prog =
      match (workload, progen, file) with
      | Some w, _, _ -> builtin_workload w
      | None, Some s, _ ->
          ( Printf.sprintf "progen-%Ld" s,
            match Minic.Driver.compile_result (Minic.Progen.generate ~seed:s) with
            | Ok prog -> prog
            | Error msg ->
                Printf.eprintf "smokestackc: %s\n" (one_line msg);
                exit exit_compile )
      | None, None, Some f -> (Filename.basename f, compile ~optimize f)
      | None, None, None ->
          usage_fail "lint: need a FILE, --workload NAME or --progen SEED"
    in
    if mutate < 0 then usage_fail "lint: --mutate must be non-negative";
    let config =
      Smokestack.Config.with_selective selective (config_of scheme no_fid)
    in
    (* ~validate:false: we run the validator ourselves so violations are
       reported as lint findings (exit 1), not a hardening exception. *)
    let hardened =
      try Smokestack.Harden.harden ~seed ~validate:false config prog
      with Failure msg ->
        Printf.eprintf "smokestackc: %s\n" (one_line msg);
        exit exit_compile
    in
    let violations = Analysis.Validate.check ~original:prog hardened in
    (* Advisory layout-leak lint (opt-in): flows from layout secrets to
       observable sinks in the hardened build. *)
    let leak_violations =
      if leaks then Analysis.Validate.check_leaks hardened else []
    in
    (* Mutation smoke test: N seeded mutants cycling the classes, each
       applicable one must be caught by its expected rule. *)
    let mutants =
      List.init mutate (fun i ->
          let m =
            List.nth Analysis.Validate.all_mutations
              (i mod List.length Analysis.Validate.all_mutations)
          in
          let mseed = Int64.add seed (Int64.of_int i) in
          match Analysis.Validate.mutate ~seed:mseed m hardened with
          | None -> (m, `Inapplicable)
          | Some (mutant, desc) ->
              let vs = Analysis.Validate.check ~original:prog mutant in
              let want = Analysis.Validate.expected_rule m in
              if List.exists (fun v -> v.Analysis.Validate.rule = want) vs then
                (m, `Caught desc)
              else (m, `Missed desc))
    in
    let missed =
      List.filter (fun (_, st) -> match st with `Missed _ -> true | _ -> false)
        mutants
    in
    Option.iter
      (fun path ->
        let module J = Sutil.Json in
        let mutations =
          List.map
            (fun (m, st) ->
              let status, detail =
                match st with
                | `Inapplicable -> ("inapplicable", "")
                | `Caught d -> ("caught", d)
                | `Missed d -> ("missed", d)
              in
              J.Obj
                [
                  ("mutation", J.String (Analysis.Validate.mutation_to_string m));
                  ("status", J.String status);
                  ("detail", J.String detail);
                ])
            mutants
        in
        write_json path
          (Analysis.Validate.report_json
             ?leaks:(if leaks then Some leak_violations else None)
             ~extra:
               (if mutants = [] then [] else [ ("mutations", J.List mutations) ])
             ~name violations))
      json_path;
    List.iter
      (fun v ->
        Printf.printf "violation: %s\n" (Analysis.Validate.violation_to_string v))
      violations;
    List.iter
      (fun v ->
        Printf.printf "leak: %s\n" (Analysis.Validate.violation_to_string v))
      leak_violations;
    List.iter
      (fun (m, st) ->
        let mname = Analysis.Validate.mutation_to_string m in
        match st with
        | `Inapplicable -> Printf.printf "mutation %-16s inapplicable\n" mname
        | `Caught d -> Printf.printf "mutation %-16s caught   (%s)\n" mname d
        | `Missed d -> Printf.printf "mutation %-16s MISSED   (%s)\n" mname d)
      mutants;
    let elided = hardened.Smokestack.Harden.elided in
    Printf.printf "%s: %s (%d function(s) checked%s%s)\n" name
      (if violations = [] && leak_violations = [] then "clean"
       else
         Printf.sprintf "%d violation(s)"
           (List.length violations + List.length leak_violations))
      (List.length hardened.Smokestack.Harden.prog.Ir.Prog.funcs)
      (if selective then Printf.sprintf ", %d elided" (List.length elided)
       else "")
      (if mutate = 0 then ""
       else
         Printf.sprintf ", %d/%d mutation(s) caught"
           (List.length
              (List.filter
                 (fun (_, st) -> match st with `Caught _ -> true | _ -> false)
                 mutants))
           mutate);
    if violations <> [] || leak_violations <> [] || missed <> [] then exit 1
  in
  let file_opt =
    Arg.(
      value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file")
  in
  let workload_arg = workload_opt "Lint" in
  let progen_arg =
    Arg.(
      value
      & opt (some int64) None
      & info [ "progen" ] ~docv:"SEED"
          ~doc:"Lint the Progen-generated program for $(docv) instead of a file")
  in
  let selective_flag =
    Arg.(
      value & flag
      & info [ "selective" ]
          ~doc:
            "Harden selectively (elide provably-safe functions) before \
             validating; the validator then also certifies each elision")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the findings as JSON to $(docv)")
  in
  let mutate_arg =
    Arg.(
      value & opt int 0
      & info [ "mutate" ] ~docv:"N"
          ~doc:
            "Also apply N seeded IR mutations (cycling the known classes) \
             and assert the validator catches each applicable one with the \
             expected rule; a missed mutant is a lint failure")
  in
  let leaks_flag =
    Arg.(
      value & flag
      & info [ "leaks" ]
          ~doc:
            "Also run the advisory layout-leak rule: flag hardened \
             functions whose observable outputs are taint-reachable from \
             the layout secrets (ss.rand draws, P-BOX rows, slice \
             addresses); each flow is a lint finding")
  in
  Cmd.v
    (Cmd.info ~exits "lint"
       ~doc:
         "Statically validate a hardened program: frame integrity, P-BOX \
          soundness, index hygiene and FID pairing, plus per-elision \
          certification under --selective.  Exit 1 on any violation or \
          missed mutation.")
    Term.(
      const action $ file_opt $ workload_arg $ progen_arg $ scheme_arg $ no_fid
      $ selective_flag $ seed_arg $ json_arg $ mutate_arg $ leaks_flag
      $ opt_flag)

let serve_cmd =
  let action sessions attack_pct chaos_pct mean_gap workers capacity seed jobs
      engine timeout json_path show_tenants affinity classes breaker storm =
    if sessions < 1 then usage_fail "serve: --sessions must be >= 1";
    if attack_pct < 0 || chaos_pct < 0 || attack_pct + chaos_pct > 100 then
      usage_fail
        "serve: --attack-pct and --chaos-pct must be non-negative and sum to \
         at most 100";
    if mean_gap < 1 then usage_fail "serve: --mean-gap must be >= 1";
    if workers < 1 then usage_fail "serve: --workers must be >= 1";
    if capacity < 1 then usage_fail "serve: --capacity must be >= 1";
    (match timeout with
    | Some t when t <= 0. -> usage_fail "serve: --timeout must be positive"
    | _ -> ());
    (match breaker with
    | Some _ when not affinity ->
        usage_fail "serve: --breaker only makes sense with --affinity"
    | Some (base, trips) when base <= 0. || trips < 0 ->
        usage_fail "serve: --breaker wants BASE>0 and TRIPS>=0"
    | _ -> ());
    let policy =
      if affinity then
        let b =
          match breaker with
          | None -> Server.Policy.default_breaker
          | Some (base_backoff, max_trips) ->
              { Server.Policy.default_breaker with base_backoff; max_trips }
        in
        Some { Server.Policy.affinity = true; breaker = b }
      else None
    in
    let config =
      {
        Harness.Serve.default with
        traffic =
          {
            Server.Traffic.default with
            Server.Traffic.sessions;
            attack_pct;
            chaos_pct;
            mean_gap;
            root = seed;
            storm =
              (if storm then Some (Fault.Storm.plan ~root:seed ~sessions ())
               else None);
          };
        dispatch =
          {
            Server.Dispatch.default with
            Server.Dispatch.virtual_workers = workers;
            queue_capacity = capacity;
            timeout;
            discipline =
              (if classes then Server.Dispatch.Wfq else Server.Dispatch.Fcfs);
            policy;
            degradation =
              (if classes || affinity then
                 Some Server.Dispatch.default_degradation
               else None);
          };
      }
    in
    let backend = Machine.Backend.find engine in
    let width =
      match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
    in
    let t0 = Unix.gettimeofday () in
    let t, stats =
      Sched.Pool.with_pool ~jobs:width @@ fun pool ->
      let t = Harness.Serve.run ~pool ~backend ~config () in
      (t, Sched.Pool.stats pool)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let title = "server runtime — mixed benign+attack traffic under load" in
    Sutil.Texttable.print ~title (Harness.Serve.summary_table t);
    if classes then
      Sutil.Texttable.print ~title:"per-class service and latency"
        (Harness.Serve.class_table t);
    if show_tenants then
      Sutil.Texttable.print ~title:"per-tenant service and security"
        (Harness.Serve.tenant_table t);
    Option.iter
      (fun path ->
        (* the table fields are deterministic; "tenants" embeds the
           per-tenant breakdown so dashboards need not re-parse the
           text table; "pool" carries this run's scheduler counters
           (host-dependent) *)
        let doc =
          match
            Sutil.Texttable.to_json ~title (Harness.Serve.summary_table t)
          with
          | Sutil.Json.Obj fields ->
              Sutil.Json.Obj
                (fields
                @ [ ("tenants",
                      Sutil.Texttable.to_json
                        (Harness.Serve.tenant_table t)) ]
                @ (if classes then
                     [ ("classes",
                         Sutil.Texttable.to_json
                           (Harness.Serve.class_table t)) ]
                   else [])
                @ [ ("pool", Sched.Pool.stats_to_json stats) ])
          | other -> other
        in
        write_json path doc)
      json_path;
    (* host-dependent numbers go to stderr, never into the report *)
    Printf.eprintf
      "serve: %.1f s wall; pool: %d jobs, %d retries, %d timeouts, peak queue %d\n"
      wall stats.Sched.Pool.jobs_run stats.Sched.Pool.retries
      stats.Sched.Pool.timeouts stats.Sched.Pool.peak_queue;
    (* a served attack diverging from its batch verdict is a harness
       soundness bug; make it impossible to miss in scripts and CI *)
    if t.Harness.Serve.summary.Server.Metrics.batch_mismatches > 0 then begin
      Printf.eprintf "smokestackc: serve: %d batch-verdict mismatch(es)\n"
        t.Harness.Serve.summary.Server.Metrics.batch_mismatches;
      exit 1
    end
  in
  let sessions_arg =
    Arg.(
      value
      & opt int Server.Traffic.default.Server.Traffic.sessions
      & info [ "sessions" ] ~docv:"N" ~doc:"Sessions in the traffic schedule")
  in
  let attack_arg =
    Arg.(
      value
      & opt int Server.Traffic.default.Server.Traffic.attack_pct
      & info [ "attack-pct" ] ~docv:"PCT"
          ~doc:"Percent of sessions that are attack sessions")
  in
  let chaos_arg =
    Arg.(
      value
      & opt int Server.Traffic.default.Server.Traffic.chaos_pct
      & info [ "chaos-pct" ] ~docv:"PCT"
          ~doc:"Percent of sessions served under an armed fault plan")
  in
  let gap_arg =
    Arg.(
      value
      & opt int Server.Traffic.default.Server.Traffic.mean_gap
      & info [ "mean-gap" ] ~docv:"CYCLES"
          ~doc:"Mean inter-arrival gap in VM cycles (smaller = more overload)")
  in
  let workers_arg =
    Arg.(
      value
      & opt int Server.Dispatch.default.Server.Dispatch.virtual_workers
      & info [ "workers" ] ~docv:"N" ~doc:"Simulated request handlers")
  in
  let capacity_arg =
    Arg.(
      value
      & opt int Server.Dispatch.default.Server.Dispatch.queue_capacity
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Waiting sessions admitted before load-shedding kicks in")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the summary table as JSON to $(docv)")
  in
  let tenants_flag =
    Arg.(
      value & flag
      & info [ "tenants" ] ~doc:"Also print the per-tenant breakdown")
  in
  let affinity_flag =
    Arg.(
      value & flag
      & info [ "affinity" ]
          ~doc:
            "Enable session affinity: per-client circuit breakers with \
             exponential virtual-time backoff and quarantine (see \
             $(b,--breaker))")
  in
  let classes_flag =
    Arg.(
      value & flag
      & info [ "classes" ]
          ~doc:
            "Enable priority classes: weighted-fair queueing over \
             paying/standard/suspect traffic, class-aware shedding, and \
             graceful degradation under fault storms")
  in
  let breaker_arg =
    Arg.(
      value
      & opt (some (pair ~sep:':' float int)) None
      & info [ "breaker" ] ~docv:"BASE:TRIPS"
          ~doc:
            "Breaker tuning for $(b,--affinity): base backoff in virtual \
             cycles and trips before permanent quarantine (default \
             20000:3)")
  in
  let storm_flag =
    Arg.(
      value & flag
      & info [ "storm" ]
          ~doc:
            "Overlay a deterministic fault storm on the schedule: burst \
             windows of elevated attack and chaos rates, derived from the \
             seed")
  in
  Cmd.v
    (Cmd.info ~exits "serve"
       ~doc:
         "Run the hardened multi-tenant server harness: a deterministic \
          mixed benign+attack traffic schedule dispatched over a worker \
          pool, reporting throughput, latency percentiles, shed rate and \
          the security ledger.  $(b,--affinity), $(b,--classes) and \
          $(b,--storm) enable the resilience control plane: per-client \
          circuit breakers, weighted-fair priority scheduling and \
          graceful degradation under fault storms.  The report is \
          byte-identical at any $(b,--jobs) and on either engine; exit 1 \
          if any served attack's verdict diverges from the batch harness.")
    Term.(
      const action $ sessions_arg $ attack_arg $ chaos_arg $ gap_arg
      $ workers_arg $ capacity_arg $ seed_arg $ jobs_arg $ engine_arg
      $ timeout_arg $ json_arg $ tenants_flag $ affinity_flag $ classes_flag
      $ breaker_arg $ storm_flag)

let campaign_cmd =
  let action progen store_dir resume seed exec_seed harden scheme no_fid
      engine fuel jobs json_path =
    if progen < 1 then usage_fail "campaign: --progen must be >= 1";
    if fuel < 1 then usage_fail "campaign: --fuel must be >= 1";
    if String.equal store_dir "" then
      usage_fail "campaign: --store must name a directory";
    if
      resume
      && not
           (Sys.file_exists (Filename.concat store_dir "manifest.json")
           && Sys.file_exists store_dir)
    then
      usage_fail
        "campaign: --resume needs an existing store at %s (nothing to resume \
         — run once without --resume, or point --store at the interrupted \
         campaign's directory)"
        store_dir;
    let store =
      (* a corrupt or foreign store directory is a usage error: the fix
         (pick another directory, or delete it) is the caller's *)
      try Store.Cache.open_disk store_dir with
      | Store.Cache.Incompatible msg -> usage_fail "campaign: %s" msg
      | Sys_error msg -> usage_fail "campaign: --store %s" msg
    in
    let config =
      Store.Campaign.config ~seed ~exec_seed
        ?harden:(if harden then Some (config_of scheme no_fid) else None)
        ~engine ~fuel ~count:progen ()
    in
    if resume then
      Printf.eprintf "campaign: resuming: %d of %d program(s) still to run\n%!"
        (Store.Campaign.remaining ~store config)
        progen;
    let width =
      match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
    in
    let t0 = Unix.gettimeofday () in
    let report, pool_stats =
      Sched.Pool.with_pool ~jobs:width @@ fun pool ->
      let r = Store.Campaign.run ~pool ~store config in
      (r, Sched.Pool.stats pool)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let store_stats = Store.Cache.stats store in
    Sutil.Texttable.print
      ~title:
        (Printf.sprintf "campaign — %d progen program(s) from seed %Ld (%s%s)"
           progen seed
           (Machine.Backend.kind_to_string engine)
           (if harden then ", hardened" else ""))
      (Store.Campaign.report_table report);
    Option.iter
      (fun path ->
        (* "report" and "digest" are deterministic; "store" and
           "pool" are this run's counters and may differ between a
           cold and a warm invocation *)
        write_json path
          (Sutil.Json.Obj
             [
               ("report", Store.Campaign.report_to_json report);
               ("digest", Sutil.Json.String report.Store.Campaign.digest);
               ("store", Store.Cache.stats_to_json store_stats);
               ("pool", Sched.Pool.stats_to_json pool_stats);
             ]))
      json_path;
    (* host-dependent numbers go to stderr, never into the report *)
    Printf.eprintf
      "campaign: %.1f s wall, %.0f program(s)/s; store: %d hit(s), %d \
       miss(es), %d write(s), %d evicted; pool: %d jobs, peak queue %d\n"
      wall
      (float_of_int progen /. Float.max wall 1e-9)
      store_stats.Store.Cache.hits store_stats.Store.Cache.misses
      store_stats.Store.Cache.writes store_stats.Store.Cache.evicted
      pool_stats.Sched.Pool.jobs_run pool_stats.Sched.Pool.peak_queue
  in
  let progen_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "progen" ] ~docv:"N"
          ~doc:"Number of Progen programs to run (seeds seed, seed+1, ...)")
  in
  let store_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Artifact store directory (created if absent).  Results are \
             keyed on program, configuration, engine and seed; re-running \
             against a populated store replays cached observables without \
             executing anything.")
  in
  let resume_flag =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Require an existing store and report how many programs remain \
             before continuing an interrupted campaign (the final report is \
             byte-identical to an uninterrupted run)")
  in
  let seed_first =
    Arg.(
      value & opt int64 1000L
      & info [ "seed" ] ~docv:"SEED" ~doc:"First Progen seed of the range")
  in
  let exec_seed_arg =
    Arg.(
      value & opt int64 7L
      & info [ "exec-seed" ] ~docv:"SEED"
          ~doc:"Entropy seed for the (hardened) runs; part of every store key")
  in
  let fuel_arg =
    Arg.(
      value & opt int 2_000_000
      & info [ "fuel" ] ~docv:"N" ~doc:"Instruction budget per program")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Also write the report (deterministic) plus this run's store and \
             pool counters (host-dependent) as JSON to $(docv)")
  in
  Cmd.v
    (Cmd.info ~exits "campaign"
       ~doc:
         "Run a store-backed execution campaign over a Progen seed range.  \
          Every program's observables are cached in $(b,--store) keyed on \
          (source, config, engine, seed); warm re-runs and $(b,--resume) \
          after a kill replay cached results and render the byte-identical \
          report at any $(b,--jobs) width.")
    Term.(
      const action $ progen_arg $ store_arg $ resume_flag $ seed_first
      $ exec_seed_arg $ harden_flag $ scheme_arg $ no_fid $ engine_arg
      $ fuel_arg $ jobs_arg $ json_arg)

let attack_cmd =
  let action workloads progen chains trials budget store_dir engine jobs
      json_path leak_guided =
    if progen < 0 then usage_fail "attack: --progen must be non-negative";
    if chains < 1 then usage_fail "attack: --chains must be >= 1";
    if trials < 1 then usage_fail "attack: --trials must be >= 1";
    if budget < 1 then usage_fail "attack: --budget must be >= 1";
    (* chain synthesis probes on the reference engine regardless;
       [backend] executes the attacks, and its kind is part of every
       store key *)
    let backend = Machine.Backend.find engine in
    let avail = Harness.Offense.available_workloads () in
    List.iter
      (fun w ->
        if not (List.mem w avail) then
          usage_fail "attack: unknown workload %S (available: %s)" w
            (String.concat ", " avail))
      workloads;
    let workloads = match workloads with [] -> None | ws -> Some ws in
    let store =
      Option.map
        (fun dir ->
          try Store.Cache.open_disk dir with
          | Store.Cache.Incompatible msg -> usage_fail "attack: %s" msg
          | Sys_error msg -> usage_fail "attack: --store %s" msg)
        store_dir
    in
    let width =
      match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
    in
    let t0 = Unix.gettimeofday () in
    let t, pool_stats =
      Sched.Pool.with_pool ~jobs:width @@ fun pool ->
      let t =
        Harness.Offense.run ~pool ~backend ?store ~trials ~brute_budget:budget
          ~max_chains:chains ?workloads ~progen ()
      in
      (t, Sched.Pool.stats pool)
    in
    let wall = Unix.gettimeofday () -. t0 in
    Sutil.Texttable.print ~title:"attack compiler — synthesis summary"
      (Harness.Offense.synth_table t);
    Sutil.Texttable.print
      ~title:"synthesized chains vs defenses (successes/trials)"
      (Harness.Offense.chain_table t);
    Sutil.Texttable.print
      ~title:
        "brute-force entropy under full hardening, synthesized vs \
         hand-written"
      (Harness.Offense.entropy_table t);
    Sutil.Texttable.print ~title:"static grounding of landing chains"
      (Harness.Offense.feedback_table t);
    Printf.printf
      "chains landing undefended: %d; full-hardening successes: %d; all \
       landing chains grounded: %b\n"
      t.Harness.Offense.landed_unhardened t.Harness.Offense.full_successes
      t.Harness.Offense.all_grounded;
    (* --leak-guided: the disclosure-guided planner mode — leak guides
       from Analysis.Leakan pin the revealed offsets and the guided
       brute walk runs next to the blind one on the disclosing target *)
    let guided =
      if not leak_guided then None
      else begin
        let g = Harness.Leakcheck.guided_run ~backend ~budget () in
        Sutil.Texttable.print
          ~title:
            "leak-guided attack vs blind Algorithm-1 walk (full hardening)"
          (Harness.Leakcheck.guided_only_table g);
        (match g with
        | None ->
            Printf.printf
              "leak-guided: no guidable chain (no disclosure gadget \
               reaches a plannable buffer)\n"
        | Some g ->
            Printf.printf
              "leak-guided: predicted %.1f attempts, measured mean %.1f, \
               within factor-3 bound: %b\n"
              g.Harness.Leakcheck.predicted g.Harness.Leakcheck.guided_mean
              g.Harness.Leakcheck.within_bound);
        Some g
      end
    in
    Option.iter
      (fun path ->
        (* the four tables and the summary are deterministic at any
           --jobs, engine and store temperature *)
        let module J = Sutil.Json in
        write_json path
          (J.Obj
             ([
                ("synthesis", Sutil.Texttable.to_json (Harness.Offense.synth_table t));
                ("chains", Sutil.Texttable.to_json (Harness.Offense.chain_table t));
                ( "entropy",
                  Sutil.Texttable.to_json (Harness.Offense.entropy_table t) );
                ( "feedback",
                  Sutil.Texttable.to_json (Harness.Offense.feedback_table t) );
                ( "summary",
                  J.Obj
                    [
                      ("landed_unhardened", J.Int t.Harness.Offense.landed_unhardened);
                      ("full_successes", J.Int t.Harness.Offense.full_successes);
                      ("all_grounded", J.Bool t.Harness.Offense.all_grounded);
                      ("trials", J.Int t.Harness.Offense.trials);
                    ] );
              ]
             @
             match guided with
             | None -> []
             | Some g ->
                 [
                   ( "leak_guided",
                     Sutil.Texttable.to_json (Harness.Leakcheck.guided_only_table g) );
                 ])))
      json_path;
    (* host-dependent numbers go to stderr, never into the report *)
    Printf.eprintf "attack: %.1f s wall; pool: %d jobs, peak queue %d\n" wall
      pool_stats.Sched.Pool.jobs_run pool_stats.Sched.Pool.peak_queue;
    (* a machine-synthesized chain landing without static grounding is
       an analyzer soundness bug — make it impossible to miss in CI *)
    if not t.Harness.Offense.all_grounded then begin
      Printf.eprintf
        "smokestackc: attack: a landing chain has no static DOP pair\n";
      exit 1
    end
  in
  let workload_arg =
    Arg.(
      value & opt_all string []
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            "Attack only this workload (repeatable); default: every \
             built-in target — the six synthetic pentest variants plus the \
             $(b,proftpd-io) and $(b,wireshark-io) request loops")
  in
  let progen_arg =
    Arg.(
      value & opt int 0
      & info [ "progen" ] ~docv:"N"
          ~doc:
            "Also synthesize against N Progen-generated programs (seeds \
             9001, 9002, ...); input-free programs honestly yield zero \
             deliverable chains and appear only in the synthesis table")
  in
  let chains_arg =
    Arg.(
      value & opt int 8
      & info [ "chains" ] ~docv:"N"
          ~doc:"Cap the synthesized chain set per target")
  in
  let trials_arg =
    Arg.(
      value & opt int 6
      & info [ "trials" ] ~docv:"N"
          ~doc:"Fresh-process attempts per (chain, defense) cell")
  in
  let budget_arg =
    Arg.(
      value & opt int 600
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Restart-after-crash attempts per brute-force entropy \
             measurement")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Artifact store directory (created if absent): every cell's \
             verdict list is keyed on (chain, config, engine, parameters); \
             a warm re-run replays cached verdicts and reports identically")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Also write the four tables and the summary (all deterministic) \
             as JSON to $(docv)")
  in
  let leak_guided_flag =
    Arg.(
      value & flag
      & info [ "leak-guided" ]
          ~doc:
            "Also run the leak-guided planner mode: consume the \
             Analysis.Leakan disclosure gadgets of the disclosing \
             $(b,stack-leaky) target, pin the revealed offsets mid-session \
             and shrink the Algorithm-1 guess, reporting measured guided \
             attempts against the degraded-entropy prediction (and the \
             blind walk next to it); shares $(b,--budget)")
  in
  Cmd.v
    (Cmd.info ~exits "attack"
       ~doc:
         "Run the automated DOP-attack compiler: synthesize gadget chains \
          from static analysis plus semantic probing of an unhardened \
          replica, execute them against undefended, selectively hardened \
          and fully hardened builds, and report survival, brute-force \
          entropy vs the hand-written corpus, and static grounding of \
          every landing chain.  The report is byte-identical at any \
          $(b,--jobs), on either engine, and on a warm store re-run; exit 1 \
          if a landing chain has no static DOP pair.")
    Term.(
      const action $ workload_arg $ progen_arg $ chains_arg $ trials_arg
      $ budget_arg $ store_arg $ engine_arg $ jobs_arg $ json_arg
      $ leak_guided_flag)

let () =
  (* force the engine library to link so --engine=bytecode resolves *)
  Engine.Backend.install ();
  (* register the static validator as harden's post-condition hook and
     the elision oracle behind Config.selective *)
  Analysis.Validate.install ();
  let info =
    Cmd.info "smokestackc" ~version:"1.0.0" ~exits
      ~doc:"MiniC compiler with Smokestack runtime stack-layout randomization"
  in
  Cli.exit_with "smokestackc" @@ fun () ->
  Cmd.eval ~catch:false
    (Cmd.group info
       [
         run_cmd;
         ir_cmd;
         pbox_cmd;
         layouts_cmd;
         entropy_cmd;
         analyze_cmd;
         lint_cmd;
         serve_cmd;
         campaign_cmd;
         attack_cmd;
       ])
