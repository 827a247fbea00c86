(* Wall-clock benchmarks of the OCaml implementation itself: one
   Bechamel micro-benchmark per paper artifact (micro) and the
   reference-vs-bytecode engine comparison (engine).  The paper tables
   and figures are bin/experiments.exe's.

   Usage:
     dune exec bench/main.exe                  # both
     dune exec bench/main.exe -- engine        # one
     dune exec bench/main.exe -- --json DIR micro

   --json DIR also writes each table as DIR/BENCH_<name>.json.  Both
   benches run sequentially (parallel neighbours would perturb their
   timings), and their numbers vary run to run.  Exit codes: 0, 1 on an
   internal error, 2 on a usage error. *)

open Cmdliner

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
           ignore
             (Apps.Librelp.attack_static ~backend:Machine.Backend.reference
                applied ~seed:(Int64.of_int !i))))
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

let run_micro () =
  let open Bechamel in
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
  [ Harness.Output.table "micro" "Bechamel micro-benchmarks (wall-clock per iteration)" tbl ]

(* ------------------------------------------------------------------ *)
(* Engine micro-benchmark: reference interpreter vs bytecode engine     *)

let run_engine () =
  let reps = 3 in
  let time_backend (backend : Machine.Backend.t)
      (applied : Defenses.Defense.applied) (w : Apps.Spec.workload) =
    let chunks = Harness.Workbench.chunks_of_input w.input in
    (* one warm-up run: compiles the image [applied] keeps for this
       backend, so the timed runs measure execution, not compilation *)
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
  [
    Harness.Output.table "engine"
      "Engine: instruction throughput, reference interpreter vs bytecode engine (unhardened \
       workloads; median of 3 monotonic-clock runs), and the bytecode engine's wall-time cost \
       of Smokestack AES-10"
      tbl;
    Harness.Output.text
      "geomean speedup: %.2fx, best: %.2fx (identical observables on every run — see `dune \
       runtest` and Harness.Diffval)"
      (exp
         (List.fold_left (fun a s -> a +. log s) 0. speedups
         /. float_of_int (List.length speedups)))
      (List.fold_left Float.max 0. speedups);
  ]

(* ------------------------------------------------------------------ *)

let benches = [ ("micro", run_micro); ("engine", run_engine) ]

let main json runs =
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) json;
  List.iter
    (fun run ->
      let out = run () in
      print_string (Harness.Output.to_markdown out);
      flush stdout;
      Option.iter (fun dir -> Harness.Output.write_json ~dir out) json)
    (if runs = [] then List.map snd benches else runs)

let json =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"DIR"
         ~doc:"Also write every table as $(i,DIR)/BENCH_<name>.json.")

let runs =
  let doc = "Benchmarks to run (default: all): " ^ String.concat ", " (List.map fst benches) in
  Arg.(value & pos_all (enum benches) [] & info [] ~docv:"KEY" ~doc)

(* Registry.setup installs the validator that Harden runs, so the
   hardening timed here is the one the experiments run. *)
let () =
  Harness.Registry.setup ();
  let exits = Cli.exits ~ok:"when every bench ran." ~failure:"on an internal error." [] in
  let info = Cmd.info "bench" ~exits ~doc:"Wall-clock benchmarks of the implementation" in
  Cli.exit_with "bench" @@ fun () -> Cmd.eval ~catch:false (Cmd.v info Term.(const main $ json $ runs))
