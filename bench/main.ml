(* Benchmark harness: regenerates every table and figure of the paper
   (Table I, Figure 3, Figure 4, the §II-C bypass study, the §V-C
   penetration tests and real-vulnerability studies), plus the §III-E
   ablation, and runs one Bechamel micro-benchmark per artifact for the
   OCaml implementation itself.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig3      # one experiment
     dune exec bench/main.exe -- table1 fig4 micro
     dune exec bench/main.exe -- --jobs=8 fig3
   Experiments: table1 fig3 fig4 bypass pentest realvuln brute rngsec
   rerand ablation analysis selective chaos serve campaign attack
   leaks resilience micro engine

   --jobs=N runs each paper-table experiment's cells on N domains;
   tables are identical for every N.  The wall-clock benchmarks (micro,
   engine) always run sequentially — parallel neighbours would perturb
   their timings. *)

let say fmt = Format.printf (fmt ^^ "@.")

(* --json DIR: besides printing, dump every table as BENCH_<name>.json
   (one file per table, Texttable.to_json form) for machine
   consumption — CI diffs, plotting scripts. *)
let json_dir : string option ref = ref None

let emit ?title ~name tbl =
  Sutil.Texttable.print ?title tbl;
  match !json_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
      let oc = open_out path in
      Sutil.Json.doc_to_channel ~indent:true oc (Sutil.Texttable.to_json ?title tbl);
      close_out oc;
      say "wrote %s" path

(* ------------------------------------------------------------------ *)
(* Paper-style tables                                                  *)

let run_table1 pool =
  let t = Harness.Randrate.run ~pool () in
  emit ~name:"table1"
    ~title:"Table I: source of randomness (cycles per 64-bit draw)"
    (Harness.Randrate.table t)

let run_fig3 pool =
  let t = Harness.Overhead.run ~pool () in
  emit ~name:"fig3"
    ~title:"Figure 3: % runtime overhead (SPEC-like + I/O workloads)"
    (Harness.Overhead.table t);
  say "worst I/O-bound overhead: %s (paper: 6%% worst case)"
    (Sutil.Texttable.fmt_pct t.io_worst)

let run_fig4 pool =
  let t = Harness.Memov.run ~pool () in
  emit ~name:"fig4" ~title:"Figure 4: % memory overhead (max-RSS proxy)"
    (Harness.Memov.table t)

let run_bypass pool =
  let t = Harness.Security.bypass_prior ~pool () in
  emit ~name:"bypass" ~title:t.title (Harness.Security.table t)

let run_pentest pool =
  let t = Harness.Security.pentest ~pool () in
  emit ~name:"pentest" ~title:t.title (Harness.Security.table t)

let run_realvuln pool =
  let t = Harness.Security.realvuln ~pool () in
  emit ~name:"realvuln" ~title:t.title (Harness.Security.table t)

let run_brute pool =
  let rows = Harness.Security.brute ~pool () in
  emit ~name:"brute"
    ~title:"E8: brute-force attempts until the librelp exploit lands"
    (Harness.Security.brute_table rows)

let run_rngsec pool =
  let t = Harness.Security.rng_security ~pool () in
  emit ~name:"rngsec" ~title:t.title (Harness.Security.table t)

let run_rerand pool =
  let rows = Harness.Security.rerandomization ~pool () in
  emit ~name:"rerand"
    ~title:
      "E11: same-run probe-then-exploit vs re-randomization interval \
       (per-invocation is the design point)"
    (Harness.Security.rerand_table rows)

let run_ablation pool =
  let t = Harness.Ablation.run ~pool () in
  emit ~name:"ablation" ~title:"E7: P-BOX optimization ablation"
    (Harness.Ablation.table t)

let run_analysis pool =
  let t = Harness.Surface.run ~pool () in
  emit ~name:"analysis"
    ~title:"E12: static DOP attack surface (expected attempts, easiest pair)"
    (Harness.Surface.table t);
  let cv = Harness.Crossval.run ~pool () in
  emit ~name:"crossval"
    ~title:"E12b: differential validation (dynamic attack => static DOP pair)"
    (Harness.Crossval.table cv);
  say "differential validation: %s"
    (if cv.all_validated then "every dynamic success has a static DOP pair"
     else "FAILED - a dynamic success has no static pair")

let run_selective pool =
  let t = Harness.Selective.run ~pool () in
  emit ~name:"selective"
    ~title:
      "E14: selective hardening — overhead and P-BOX bytes, full vs \
       validator-certified elision"
    (Harness.Selective.table t);
  say "mean overhead saved: %s; mean P-BOX bytes saved: %.1f%%"
    (Sutil.Texttable.fmt_pct t.mean_delta)
    t.mean_pbox_saving_pct;
  let cv = Harness.Crossval.run_selective ~pool () in
  emit ~name:"selective_diff"
    ~title:
      "E14a: selective-hardening differential (verdicts and Progen output \
       vs full hardening)"
    (Harness.Crossval.selective_table cv);
  say "selective differential: %s"
    (if cv.all_identical then "bit-identical to full hardening on every case"
     else "FAILED - selective hardening changed an observable")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)

let micro_tests () =
  let open Bechamel in
  let entropy = Crypto.Entropy.create ~seed:11L in
  (* Table I: the four generators, OCaml-side *)
  let gen_test scheme =
    let gen = Rng.Generator.create scheme ~entropy in
    Test.make
      ~name:("table1/" ^ Rng.Scheme.name scheme)
      (Staged.stage (fun () -> ignore (Rng.Generator.next_u64 gen)))
  in
  (* Figure 3: executing a hardened call-dense probe *)
  let fig3_probe =
    let w = Option.get (Apps.Spec.find "gobmk") in
    let prog = Lazy.force w.program in
    let hardened = Smokestack.Harden.harden Smokestack.Config.default prog in
    Test.make ~name:"fig3/exec-gobmk-hardened"
      (Staged.stage (fun () ->
           let st =
             Smokestack.Harden.prepare hardened
               ~entropy:(Crypto.Entropy.create ~seed:5L)
           in
           ignore (Machine.Exec.run ~fuel:50_000_000 st)))
  in
  (* Figure 4: P-BOX construction (what the memory overhead buys) *)
  let fig4_pbox =
    let prog = Lazy.force (Option.get (Apps.Spec.find "h264ref")).program in
    Test.make ~name:"fig4/pbox-build-h264ref"
      (Staged.stage (fun () ->
           ignore (Smokestack.Harden.harden Smokestack.Config.default prog)))
  in
  (* §II-C / §V-C: one full exploit attempt *)
  let sec_attempt =
    let prog = Lazy.force Apps.Librelp.program in
    let applied =
      Defenses.Defense.apply
        (Defenses.Defense.Smokestack Smokestack.Config.default)
        prog
    in
    let i = ref 0 in
    Test.make ~name:"security/librelp-attempt-vs-smokestack"
      (Staged.stage (fun () ->
           incr i;
           ignore (Apps.Librelp.attack_static applied ~seed:(Int64.of_int !i))))
  in
  (* Algorithm 1 itself *)
  let permgen =
    let metas = [| (1024, 1); (64, 1); (8, 8); (8, 8); (4, 4); (2, 2) |] in
    Test.make ~name:"alg1/permgen-6-slots"
      (Staged.stage (fun () -> ignore (Smokestack.Permgen.generate metas)))
  in
  let aes_block ~name ~rounds =
    let key = Crypto.Aes.expand_key (Crypto.Entropy.bytes entropy 16) in
    let block = Crypto.Entropy.bytes entropy 16 in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Crypto.Aes.encrypt_block ~rounds key block)))
  in
  let aes = aes_block ~name:"table1/aes-block-software" ~rounds:10 in
  let aes1 = aes_block ~name:"table1/aes1-block-software" ~rounds:1 in
  Test.make_grouped ~name:"smokestack"
    [
      gen_test Rng.Scheme.Pseudo; gen_test Rng.Scheme.aes1;
      gen_test Rng.Scheme.aes10; gen_test Rng.Scheme.Rdrand;
      fig3_probe; fig4_pbox; sec_attempt; permgen; aes; aes1;
    ]

let run_chaos pool =
  Engine.Backend.install ();
  let t = Harness.Chaos.run ~pool () in
  emit ~name:"chaos"
    ~title:"E13: chaos — seeded fault injection across workloads and engines"
    (Harness.Chaos.table t);
  emit ~name:"chaos_policy"
    ~title:"E13: fail-secure vs fail-open (rng:ones@1, RDRAND source)"
    (Harness.Chaos.policy_table t);
  say "detection: %d/%d corrupting fired plans caught (%.1f%%)" t.caught
    t.corrupting_fired
    (100. *. t.detection_rate)

let run_serve pool =
  Engine.Backend.install ();
  let t0 = Unix.gettimeofday () in
  let t = Harness.Serve.run ~pool () in
  let wall = Unix.gettimeofday () -. t0 in
  emit ~name:"server"
    ~title:"E15: server runtime — mixed benign+attack traffic under load"
    (Harness.Serve.summary_table t);
  emit ~name:"server_tenants" ~title:"E15: per-tenant service and security"
    (Harness.Serve.tenant_table t);
  say "peak %d concurrent sessions; %d batch-verdict mismatches over %d checks"
    t.summary.Server.Metrics.peak_open t.summary.Server.Metrics.batch_mismatches
    t.summary.Server.Metrics.batch_checked;
  let st = Sched.Pool.stats pool in
  Printf.eprintf
    "serve: %.1f s wall; pool: %d jobs, %d retries, %d timeouts, peak queue %d\n"
    wall st.Sched.Pool.jobs_run st.Sched.Pool.retries st.Sched.Pool.timeouts
    st.Sched.Pool.peak_queue

let run_attack pool =
  Engine.Backend.install ();
  let t = Harness.Offense.run ~pool ~progen:10 () in
  emit ~name:"offense"
    ~title:"E17: synthesized attack chains vs defenses (successes/trials)"
    (Harness.Offense.chain_table t);
  emit ~name:"offense_synth" ~title:"E17: attack-compiler synthesis summary"
    (Harness.Offense.synth_table t);
  emit ~name:"offense_entropy"
    ~title:
      "E17: brute-force entropy under full hardening, synthesized vs \
       hand-written"
    (Harness.Offense.entropy_table t);
  emit ~name:"offense_feedback"
    ~title:"E17: static grounding of landing chains"
    (Harness.Offense.feedback_table t);
  say
    "chains landing undefended: %d; full-hardening successes: %d; all landing \
     chains grounded: %b"
    t.landed_unhardened t.full_successes t.all_grounded

let run_leaks pool =
  Engine.Backend.install ();
  let t = Harness.Leakcheck.run ~pool () in
  emit ~name:"leaks"
    ~title:
      "E19: static layout-leak verdict vs dynamic seed-variance, full \
       hardening"
    (Harness.Leakcheck.table t);
  emit ~name:"leaks_guided"
    ~title:"E19: leak-guided attack vs blind Algorithm-1 walk (stack-leaky)"
    (Harness.Leakcheck.guided_table t);
  say "static/dynamic disagreements: %d; guided within factor-3 bound: %s"
    t.disagreements
    (match t.guided with
    | None -> "NO GUIDED CHAIN"
    | Some g -> if g.within_bound then "yes" else "NO")

let run_resilience pool =
  Engine.Backend.install ();
  let t0 = Unix.gettimeofday () in
  let t = Harness.Resilience.run ~pool () in
  let wall = Unix.gettimeofday () -. t0 in
  emit ~name:"resilience"
    ~title:
      "E18: brute-force cost vs full hardening, session affinity off vs \
       breakers on"
    (Harness.Resilience.cost_table t);
  emit ~name:"resilience_fleet"
    ~title:"E18: fleet under a fault storm, FCFS baseline vs control plane"
    (Harness.Resilience.fleet_table t);
  emit ~name:"resilience_classes"
    ~title:"E18: per-class service in the resilient cell"
    (Harness.Resilience.class_table t);
  say
    "hand-written cost strictly higher: %b; synthesized: %b; benign p99 \
     ratio: %.3f; mismatches: %d"
    t.hand_higher t.synth_higher t.benign_p99_ratio t.mismatches;
  Printf.eprintf "resilience: %.1f s wall\n" wall

(* ------------------------------------------------------------------ *)
(* Store-backed campaign: cold vs warm cost of the artifact store       *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let run_campaign pool =
  Engine.Backend.install ();
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smokestack-bench-store-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then rm_rf dir;
  let store = Store.Cache.open_disk dir in
  let config = Store.Campaign.config ~seed:1000L ~count:400 () in
  let phase label =
    Store.Cache.reset_stats store;
    let t0 = Unix.gettimeofday () in
    let report = Store.Campaign.run ~pool ~store config in
    let wall = Unix.gettimeofday () -. t0 in
    let st = Store.Cache.stats store in
    let lookups = st.Store.Cache.hits + st.Store.Cache.misses in
    ( label,
      wall,
      float_of_int config.Store.Campaign.count /. Float.max wall 1e-9,
      (if lookups = 0 then 0.
       else 100. *. float_of_int st.Store.Cache.hits /. float_of_int lookups),
      report )
  in
  let cold = phase "cold" in
  let warm = phase "warm" in
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("phase", Sutil.Texttable.Left);
          ("wall s", Sutil.Texttable.Right);
          ("programs/s", Sutil.Texttable.Right);
          ("hit rate", Sutil.Texttable.Right);
          ("digest", Sutil.Texttable.Left);
        ]
  in
  List.iter
    (fun (label, wall, rate, hit_rate, (report : Store.Campaign.report)) ->
      Sutil.Texttable.add_row tbl
        [
          label;
          Printf.sprintf "%.2f" wall;
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.1f%%" hit_rate;
          report.Store.Campaign.digest;
        ])
    [ cold; warm ];
  emit ~name:"campaign"
    ~title:
      "Campaign store: 400 progen programs, cold (execute + record) vs warm \
       (replay from store)"
    tbl;
  let (_, cold_wall, _, _, cold_r) = cold and (_, warm_wall, _, _, warm_r) = warm in
  say "warm/cold speedup: %.1fx; digests %s" (cold_wall /. Float.max warm_wall 1e-9)
    (if String.equal cold_r.Store.Campaign.digest warm_r.Store.Campaign.digest
     then "identical"
     else "DIVERGE");
  rm_rf dir

let run_micro () =
  let open Bechamel in
  say "Bechamel micro-benchmarks (wall-clock per iteration):";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("benchmark", Sutil.Texttable.Left);
          ("time/iter", Sutil.Texttable.Right);
        ]
  in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      let cell =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Sutil.Texttable.add_row tbl [ name; cell ])
    (List.sort compare rows);
  emit ~name:"micro" tbl

(* ------------------------------------------------------------------ *)
(* Engine micro-benchmark: reference interpreter vs bytecode engine     *)

let run_engine () =
  Engine.Backend.install ();
  let reps = 3 in
  let time_backend (backend : Machine.Backend.t)
      (applied : Defenses.Defense.applied) (w : Apps.Spec.workload) =
    let chunks = Harness.Workbench.chunks_of_input w.input in
    (* one warm-up run: populates the engine's compiled-program cache so
       the timed runs measure execution, not compilation *)
    ignore (Apps.Runner.run_chunks ~backend ~fuel:400_000_000 applied ~seed:1L ~chunks);
    let instrs = ref 0 in
    let times =
      List.init reps (fun _ ->
          let t0 = Monotonic_clock.now () in
          let _, stats =
            Apps.Runner.run_chunks ~backend ~fuel:400_000_000 applied ~seed:1L
              ~chunks
          in
          instrs := stats.Machine.Exec.instr_count;
          Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)
    in
    (Sutil.Stats.median times, !instrs)
  in
  let mips instrs t = float_of_int instrs /. t /. 1e6 in
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("workload", Sutil.Texttable.Left);
          ("instrs/run", Sutil.Texttable.Right);
          ("reference", Sutil.Texttable.Right);
          ("bytecode", Sutil.Texttable.Right);
          ("speedup", Sutil.Texttable.Right);
          ("bytecode, AES-10 hardened", Sutil.Texttable.Right);
          ("hardening wall", Sutil.Texttable.Right);
        ]
  in
  let speedups =
    List.map
      (fun (w : Apps.Spec.workload) ->
        let prog = Lazy.force w.program in
        let applied = Defenses.Defense.apply Defenses.Defense.No_defense prog in
        let hardened =
          Defenses.Defense.apply
            (Defenses.Defense.Smokestack Smokestack.Config.default)
            prog
        in
        let tref, instrs =
          time_backend Machine.Backend.reference applied w
        in
        let tbc, _ = time_backend Engine.Backend.backend applied w in
        let thard, hinstrs = time_backend Engine.Backend.backend hardened w in
        Sutil.Texttable.add_row tbl
          [
            w.wname;
            string_of_int instrs;
            Printf.sprintf "%.3f s (%.1f Mi/s)" tref (mips instrs tref);
            Printf.sprintf "%.3f s (%.1f Mi/s)" tbc (mips instrs tbc);
            Printf.sprintf "%.2fx" (tref /. tbc);
            Printf.sprintf "%.3f s (%.1f Mi/s)" thard (mips hinstrs thard);
            Printf.sprintf "%+.1f%%" (100. *. ((thard /. tbc) -. 1.));
          ];
        tref /. tbc)
      Apps.Spec.spec
  in
  emit ~name:"engine"
    ~title:
      "Engine: instruction throughput, reference interpreter vs bytecode \
       engine (unhardened workloads; median of 3 monotonic-clock runs), \
       and the bytecode engine's wall-time cost of Smokestack AES-10"
    tbl;
  say "geomean speedup: %.2fx, best: %.2fx (identical observables on every run \
       — see `dune runtest` and Harness.Diffval)"
    (exp
       (List.fold_left (fun a s -> a +. log s) 0. speedups
       /. float_of_int (List.length speedups)))
    (List.fold_left Float.max 0. speedups)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", run_table1);
    ("fig3", run_fig3);
    ("fig4", run_fig4);
    ("bypass", run_bypass);
    ("pentest", run_pentest);
    ("realvuln", run_realvuln);
    ("brute", run_brute);
    ("rngsec", run_rngsec);
    ("rerand", run_rerand);
    ("ablation", run_ablation);
    ("analysis", run_analysis);
    ("selective", run_selective);
    ("chaos", run_chaos);
    ("serve", run_serve);
    ("campaign", run_campaign);
    ("attack", run_attack);
    ("leaks", run_leaks);
    ("resilience", run_resilience);
    (* wall-clock benchmarks: always sequential, the pool is unused *)
    ("micro", fun (_ : Sched.Pool.t) -> run_micro ());
    ("engine", fun (_ : Sched.Pool.t) -> run_engine ());
  ]

let jobs_prefix = "--jobs="
let json_prefix = "--json="

(* Pull --jobs=N and --json DIR (or --json=DIR) out of the argument
   list; what remains are experiment names. *)
let rec parse_args = function
  | [] -> (None, [])
  | "--json" :: dir :: rest ->
      json_dir := Some dir;
      parse_args rest
  | "--json" :: [] ->
      say "--json needs a directory argument";
      exit 2
  | a :: rest when String.starts_with ~prefix:json_prefix a ->
      json_dir :=
        Some
          (String.sub a (String.length json_prefix)
             (String.length a - String.length json_prefix));
      parse_args rest
  | a :: rest when String.starts_with ~prefix:jobs_prefix a -> (
      let v =
        String.sub a (String.length jobs_prefix)
          (String.length a - String.length jobs_prefix)
      in
      match int_of_string_opt v with
      | Some n when n >= 1 ->
          let _, names = parse_args rest in
          (Some n, names)
      | _ ->
          say "bad --jobs value %S (want a positive integer)" a;
          exit 2)
  | a :: rest ->
      let jobs, names = parse_args rest in
      (jobs, a :: names)

let () =
  let jobs, names = parse_args (List.tl (Array.to_list Sys.argv)) in
  (match !json_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let requested =
    match names with [] -> List.map fst experiments | names -> names
  in
  Sched.Pool.with_pool ?jobs @@ fun pool ->
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          say "== %s ==" name;
          f pool;
          say ""
      | None ->
          say "unknown experiment %S; available: %s" name
            (String.concat " " (List.map fst experiments));
          exit 2)
    requested
