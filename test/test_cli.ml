(* End-to-end tests of the compiled smokestackc binary: the documented
   exit-code contract (0 clean, 1 non-zero exit, 2 usage, 3
   compile/parse, 4 runtime fault) and the --chaos/--timeout flags, all
   driven through a real process so a shell script can rely on $?. *)

let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/smokestackc.exe"

let experiments_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/experiments.exe"

let write_temp content =
  let path = Filename.temp_file "smokestackc_cli" ".c" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

(* Run the binary, return (exit code, stdout+stderr). *)
let run_cli ?(exe = exe) args =
  let out = Filename.temp_file "smokestackc_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, text)

let check_code what expected (code, output) =
  if code <> expected then
    Alcotest.failf "%s: expected exit %d, got %d; output:\n%s" what expected
      code output

let clean_src = {| int main() { print_str("ok\n"); return 0; } |}

let nonzero_src = {| int main() { return 3; } |}

let fault_src = {| int main() { int *p; p = (int*)32768; return *p; } |}

let chaos_src =
  {|
int leaf(int n) {
  int a[4];
  int b;
  b = n;
  a[0] = b + 1;
  return a[0];
}
int main() {
  int i;
  i = 0;
  while (i < 50) { i = i + leaf(0) + 1; }
  return 0;
}
|}

let test_exit_0_clean_run () =
  let src = write_temp clean_src in
  let code, output = run_cli [ "run"; src ] in
  check_code "clean run" 0 (code, output);
  Alcotest.(check bool)
    "program output present" true
    (String.length output >= 3 && String.sub output 0 3 = "ok\n")

let test_exit_1_nonzero_program_exit () =
  let src = write_temp nonzero_src in
  check_code "exit 3 program" 1 (run_cli [ "run"; src ])

let test_exit_2_usage () =
  let src = write_temp clean_src in
  check_code "unknown flag" 2 (run_cli [ "run"; "--no-such-flag"; src ]);
  check_code "bad chaos spec" 2 (run_cli [ "run"; "--chaos"; "bogus"; src ]);
  check_code "rng chaos without --harden" 2
    (run_cli [ "run"; "--chaos"; "rng:ones@1"; src ]);
  check_code "bad seeds" 2 (run_cli [ "run"; "--seeds"; "0"; src ]);
  check_code "bad timeout" 2 (run_cli [ "run"; "--timeout"; "0"; src ]);
  check_code "bad jobs" 2 (run_cli [ "run"; "--jobs"; "0"; src ]);
  check_code "garbage jobs" 2 (run_cli [ "run"; "--jobs"; "many"; src ])

let test_exit_3_parse_error () =
  let src = write_temp "int main( { return 0 }" in
  let code, output = run_cli [ "run"; src ] in
  check_code "parse error" 3 (code, output);
  Alcotest.(check bool)
    "one-line diagnostic" true
    (String.length output > 0
    && (not (String.contains (String.trim output) '\n'))
    && String.length output >= 12
    && String.sub output 0 12 = "smokestackc:")

let test_exit_4_runtime_fault () =
  let src = write_temp fault_src in
  check_code "memory fault" 4 (run_cli [ "run"; src ])

let test_exit_4_chaos_detection () =
  let src = write_temp chaos_src in
  (* corrupting the FID assertion must surface as a detection: exit 4 *)
  check_code "FID corruption detected" 4
    (run_cli
       [ "run"; "--harden"; "--chaos"; "intr:ss.fid_assert:xor=1@1"; src ])

let test_chaos_rng_degradation_reported () =
  let src = write_temp chaos_src in
  let code, output =
    run_cli
      [ "run"; "--harden"; "--scheme"; "RDRAND"; "--chaos"; "rng:ones@1"; src ]
  in
  check_code "stuck RDRAND run completes on the fallback" 0 (code, output);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "degradation reported" true
    (contains output "RDRAND->AES-10")

let test_timeout_multi_seed () =
  let src = write_temp clean_src in
  let code, output =
    run_cli [ "run"; "--seeds"; "3"; "--timeout"; "30"; "--jobs"; "2"; src ]
  in
  check_code "multi-seed with timeout" 0 (code, output);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (let nh = String.length output and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub output i nn = needle || go (i + 1))
         in
         go 0))
    [ "== seed 1 =="; "== seed 2 =="; "== seed 3 ==" ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- lint ---------------------------------------------------------- *)

let test_lint_clean_file () =
  let src = write_temp chaos_src in
  let code, output = run_cli [ "lint"; src ] in
  check_code "lint clean file" 0 (code, output);
  Alcotest.(check bool) "clean verdict printed" true (contains output "clean")

let test_lint_clean_workload () =
  let code, output = run_cli [ "lint"; "--workload"; "proftpd-io" ] in
  check_code "lint proftpd-io" 0 (code, output);
  Alcotest.(check bool) "clean verdict printed" true (contains output "clean")

let test_lint_json () =
  let json = Filename.temp_file "smokestackc_lint" ".json" in
  let code, output =
    run_cli [ "lint"; "--workload"; "stack-direct"; "--json"; json ]
  in
  check_code "lint --json" 0 (code, output);
  let ic = open_in_bin json in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove json)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Sutil.Json.of_string text with
  | Error e -> Alcotest.failf "lint --json output does not parse: %s" e
  | Ok j -> (
      match (Sutil.Json.member "clean" j, Sutil.Json.member "violations" j) with
      | Some (Sutil.Json.Bool true), Some (Sutil.Json.List []) -> ()
      | _ -> Alcotest.failf "unexpected lint JSON: %s" text)

let test_lint_mutate_caught () =
  (* progen-42 admits every mutation class; all six must be caught *)
  let code, output =
    run_cli [ "lint"; "--progen"; "42"; "--mutate"; "6" ]
  in
  check_code "lint --mutate" 0 (code, output);
  Alcotest.(check bool)
    "all mutations caught" true
    (contains output "6/6 mutation(s) caught");
  Alcotest.(check bool) "no missed mutant" false (contains output "MISSED")

let test_lint_usage_errors () =
  check_code "lint without input" 2 (run_cli [ "lint" ]);
  check_code "lint unknown workload" 2
    (run_cli [ "lint"; "--workload"; "no-such-workload" ]);
  let src = write_temp clean_src in
  check_code "lint negative mutate" 2 (run_cli [ "lint"; "--mutate"; "-1"; src ])

let test_lint_selective () =
  let code, output =
    run_cli [ "lint"; "--workload"; "gobmk"; "--selective" ]
  in
  check_code "lint --selective" 0 (code, output);
  Alcotest.(check bool) "elided count reported" true (contains output "elided")

(* --- serve --------------------------------------------------------- *)

(* stdout only: the serve report must be byte-identical across --jobs,
   while stderr carries the host-dependent timing footer *)
let run_cli_stdout args =
  let out = Filename.temp_file "smokestackc_out" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, text)

let serve_small = [ "serve"; "--sessions"; "60"; "--seed"; "7" ]

let test_serve_small_run () =
  let code, output = run_cli (serve_small @ [ "--jobs"; "2"; "--tenants" ]) in
  check_code "serve run" 0 (code, output);
  Alcotest.(check bool) "summary table present" true
    (contains output "batch-verdict mismatches");
  Alcotest.(check bool) "tenant table present" true
    (contains output "per-tenant service and security");
  Alcotest.(check bool) "pool footer on stderr" true (contains output "pool:")

let test_serve_stdout_identical_across_jobs () =
  let j1 = run_cli_stdout (serve_small @ [ "--jobs"; "1" ]) in
  let j3 = run_cli_stdout (serve_small @ [ "--jobs"; "3" ]) in
  check_code "serve --jobs 1" 0 j1;
  check_code "serve --jobs 3" 0 j3;
  Alcotest.(check string) "stdout byte-identical across --jobs" (snd j1)
    (snd j3);
  let bc = run_cli_stdout (serve_small @ [ "--engine"; "bytecode" ]) in
  check_code "serve --engine bytecode" 0 bc;
  Alcotest.(check string) "stdout byte-identical across engines" (snd j1)
    (snd bc)

let test_serve_json () =
  let json = Filename.temp_file "smokestackc_serve" ".json" in
  let code, output = run_cli (serve_small @ [ "--json"; json ]) in
  check_code "serve --json" 0 (code, output);
  let ic = open_in_bin json in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove json)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Sutil.Json.of_string text with
  | Error e -> Alcotest.failf "serve --json output does not parse: %s" e
  | Ok j -> (
      match Sutil.Json.member "pool" j with
      | Some (Sutil.Json.Obj _) -> ()
      | _ -> Alcotest.failf "serve --json lacks pool counters: %s" text)

let test_serve_usage_errors () =
  check_code "serve --sessions 0" 2 (run_cli [ "serve"; "--sessions"; "0" ]);
  check_code "serve --jobs 0" 2 (run_cli [ "serve"; "--jobs"; "0" ]);
  check_code "serve garbage jobs" 2 (run_cli [ "serve"; "--jobs"; "lots" ]);
  check_code "serve percentages over 100" 2
    (run_cli [ "serve"; "--attack-pct"; "80"; "--chaos-pct"; "30" ]);
  check_code "serve --capacity 0" 2 (run_cli [ "serve"; "--capacity"; "0" ]);
  check_code "serve --workers 0" 2 (run_cli [ "serve"; "--workers"; "0" ]);
  check_code "serve --timeout 0" 2 (run_cli [ "serve"; "--timeout"; "0" ]);
  check_code "serve --mean-gap 0" 2 (run_cli [ "serve"; "--mean-gap"; "0" ])

(* --- campaign ------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store_dir f =
  (* reserve a unique path, then hand the (absent) directory to the CLI,
     which creates the store in it *)
  let dir = Filename.temp_file "smokestackc_store" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let campaign_small dir = [ "campaign"; "--progen"; "25"; "--store"; dir ]

let test_campaign_cold_then_warm_identical () =
  with_store_dir @@ fun dir ->
  let cold = run_cli_stdout (campaign_small dir) in
  let warm = run_cli_stdout (campaign_small dir @ [ "--jobs"; "3" ]) in
  check_code "cold campaign" 0 cold;
  check_code "warm campaign" 0 warm;
  Alcotest.(check bool) "summary table present" true
    (contains (snd cold) "digest");
  Alcotest.(check string)
    "warm stdout byte-identical to cold (across --jobs)" (snd cold) (snd warm)

let test_campaign_resume () =
  with_store_dir @@ fun dir ->
  let half = run_cli_stdout ([ "campaign"; "--progen"; "12"; "--store"; dir ]) in
  check_code "half campaign" 0 half;
  let resumed =
    run_cli
      [ "campaign"; "--progen"; "25"; "--store"; dir; "--resume" ]
  in
  check_code "resumed campaign" 0 resumed;
  let uninterrupted = run_cli_stdout (campaign_small dir) in
  check_code "uninterrupted warm replay" 0 uninterrupted;
  (* the resumed run's stdout must equal a from-scratch run's; compare
     via the warm replay, which serves both from the same store *)
  with_store_dir @@ fun fresh ->
  let scratch = run_cli_stdout (campaign_small fresh) in
  check_code "from-scratch campaign" 0 scratch;
  Alcotest.(check string) "resume converges on the from-scratch report"
    (snd scratch) (snd uninterrupted)

let test_campaign_json () =
  with_store_dir @@ fun dir ->
  ignore (run_cli (campaign_small dir));
  let json = Filename.temp_file "smokestackc_campaign" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove json) @@ fun () ->
  let code, output = run_cli (campaign_small dir @ [ "--json"; json ]) in
  check_code "campaign --json" 0 (code, output);
  let ic = open_in_bin json in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Sutil.Json.of_string text with
  | Error e -> Alcotest.failf "campaign --json output does not parse: %s" e
  | Ok j -> (
      (match Sutil.Json.member "digest" j with
      | Some (Sutil.Json.String d) ->
          Alcotest.(check bool) "digest non-empty" true (String.length d > 0)
      | _ -> Alcotest.failf "campaign JSON lacks digest: %s" text);
      (match Sutil.Json.member "report" j with
      | Some (Sutil.Json.Obj _) -> ()
      | _ -> Alcotest.failf "campaign JSON lacks report: %s" text);
      (match Sutil.Json.member "pool" j with
      | Some (Sutil.Json.Obj _) -> ()
      | _ -> Alcotest.failf "campaign JSON lacks pool counters: %s" text);
      match Sutil.Json.member "store" j with
      | Some store -> (
          (* second run over a populated store: every key hits *)
          match Sutil.Json.member "hits" store with
          | Some (Sutil.Json.Int 25) -> ()
          | _ -> Alcotest.failf "warm run did not hit every key: %s" text)
      | None -> Alcotest.failf "campaign JSON lacks store counters: %s" text)

let test_campaign_usage_errors () =
  with_store_dir @@ fun dir ->
  check_code "campaign without --progen" 2
    (run_cli [ "campaign"; "--store"; dir ]);
  check_code "campaign without --store" 2
    (run_cli [ "campaign"; "--progen"; "5" ]);
  check_code "campaign --progen 0" 2
    (run_cli [ "campaign"; "--progen"; "0"; "--store"; dir ]);
  check_code "campaign garbage progen" 2
    (run_cli [ "campaign"; "--progen"; "lots"; "--store"; dir ]);
  check_code "campaign --jobs 0" 2
    (run_cli (campaign_small dir @ [ "--jobs"; "0" ]));
  check_code "campaign --fuel 0" 2
    (run_cli (campaign_small dir @ [ "--fuel"; "0" ]));
  check_code "campaign --resume with nothing to resume" 2
    (run_cli (campaign_small dir @ [ "--resume" ]))

let test_campaign_rejects_broken_store () =
  (* a file where the store directory should be *)
  let file = Filename.temp_file "smokestackc_store" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () ->
      check_code "store path is a file" 2 (run_cli (campaign_small file)));
  (* a directory written by a future format version *)
  with_store_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "manifest.json") in
  output_string oc "{\"smokestack-store\": 999}\n";
  close_out oc;
  let code, output = run_cli (campaign_small dir) in
  check_code "version-mismatched store" 2 (code, output);
  Alcotest.(check bool)
    "diagnostic names the version mismatch" true
    (contains output "version");
  (* a pre-existing non-store directory *)
  with_store_dir @@ fun dir2 ->
  Sys.mkdir dir2 0o755;
  let oc = open_out (Filename.concat dir2 "unrelated.txt") in
  output_string oc "hands off\n";
  close_out oc;
  let code, output = run_cli (campaign_small dir2) in
  check_code "foreign directory" 2 (code, output);
  Alcotest.(check bool)
    "diagnostic says it is not a store" true
    (contains output "manifest")

(* The attack compiler's store path: every verdict list goes through
   Store.Cache.memo, so a warm re-run must serve every cell from the
   store (nothing appended to the log) and print the same report. *)
let attack_small dir =
  [
    "attack"; "--workload"; "stack-direct"; "--trials"; "2"; "--budget"; "40";
    "--chains"; "4"; "--jobs"; "1"; "--store"; dir;
  ]

let log_bytes dir =
  let log = Filename.concat dir "log" in
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat log f)).Unix.st_size)
    0 (Sys.readdir log)

let test_attack_cold_then_warm_identical () =
  with_store_dir @@ fun dir ->
  let cold = run_cli_stdout (attack_small dir) in
  check_code "cold attack" 0 cold;
  let written = log_bytes dir in
  Alcotest.(check bool) "cold run filled the store" true (written > 0);
  let warm = run_cli_stdout (attack_small dir) in
  check_code "warm attack" 0 warm;
  Alcotest.(check bool) "both brute-force walks ran" true
    (contains (snd cold) "synthesized dispatch-loop"
    && contains (snd cold) "stack-direct  hand-written");
  Alcotest.(check string) "warm stdout byte-identical to cold" (snd cold)
    (snd warm);
  Alcotest.(check int) "warm run appended nothing" written (log_bytes dir)

let test_attack_usage_errors () =
  check_code "attack --jobs 0" 2 (run_cli [ "attack"; "--jobs"; "0" ])

(* --- experiments ---------------------------------------------------- *)

(* --json DIR writes exactly the selected entries' tables, each a
   parseable Texttable.to_json document; an unknown key is a usage
   error. *)
let test_experiments_json () =
  with_store_dir @@ fun dir ->
  check_code "experiments --json" 0
    (run_cli ~exe:experiments_exe [ "--json"; dir; "table1"; "rngsec" ]);
  Alcotest.(check (list string)) "one file per table"
    [ "BENCH_rngsec.json"; "BENCH_table1.json" ]
    (List.sort String.compare (Array.to_list (Sys.readdir dir)));
  let columns name =
    let text = In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all in
    match Sutil.Json.of_string text with
    | Error e -> Alcotest.failf "%s does not parse: %s" name e
    | Ok doc ->
        List.filter_map Sutil.Json.to_str_opt
          (Sutil.Json.to_list (Option.value ~default:Sutil.Json.Null (Sutil.Json.member "columns" doc)))
  in
  Alcotest.(check (list string)) "table1 columns"
    [ "source"; "security"; "measured cyc/draw"; "paper cyc/draw" ]
    (columns "BENCH_table1.json");
  Alcotest.(check (list string)) "rngsec columns"
    [ "attack"; "smokestack(pseudo)"; "smokestack(RDRAND)"; "smokestack(AES-1)"; "smokestack(AES-10)" ]
    (columns "BENCH_rngsec.json");
  check_code "unknown key" 2 (run_cli ~exe:experiments_exe [ "no-such-experiment" ])

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "0: clean run" `Quick test_exit_0_clean_run;
          Alcotest.test_case "1: non-zero exit" `Quick
            test_exit_1_nonzero_program_exit;
          Alcotest.test_case "2: usage errors" `Quick test_exit_2_usage;
          Alcotest.test_case "3: parse error" `Quick test_exit_3_parse_error;
          Alcotest.test_case "4: runtime fault" `Quick test_exit_4_runtime_fault;
          Alcotest.test_case "4: chaos detection" `Quick
            test_exit_4_chaos_detection;
        ] );
      ( "flags",
        [
          Alcotest.test_case "chaos degradation line" `Quick
            test_chaos_rng_degradation_reported;
          Alcotest.test_case "timeout + seeds" `Quick test_timeout_multi_seed;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean file" `Quick test_lint_clean_file;
          Alcotest.test_case "clean workload" `Quick test_lint_clean_workload;
          Alcotest.test_case "json report" `Quick test_lint_json;
          Alcotest.test_case "mutations caught" `Slow test_lint_mutate_caught;
          Alcotest.test_case "usage errors" `Quick test_lint_usage_errors;
          Alcotest.test_case "selective" `Quick test_lint_selective;
        ] );
      ( "serve",
        [
          Alcotest.test_case "small run" `Quick test_serve_small_run;
          Alcotest.test_case "stdout identical across jobs/engines" `Quick
            test_serve_stdout_identical_across_jobs;
          Alcotest.test_case "json report" `Quick test_serve_json;
          Alcotest.test_case "usage errors" `Quick test_serve_usage_errors;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "cold then warm identical" `Quick
            test_campaign_cold_then_warm_identical;
          Alcotest.test_case "resume converges" `Quick test_campaign_resume;
          Alcotest.test_case "json report and counters" `Quick
            test_campaign_json;
          Alcotest.test_case "usage errors" `Quick test_campaign_usage_errors;
          Alcotest.test_case "broken store diagnostics" `Quick
            test_campaign_rejects_broken_store;
        ] );
      ( "attack",
        [
          Alcotest.test_case "cold then warm identical" `Quick
            test_attack_cold_then_warm_identical;
          Alcotest.test_case "usage errors" `Quick test_attack_usage_errors;
        ] );
      ( "experiments",
        [ Alcotest.test_case "json tables and unknown key" `Quick test_experiments_json ] );
    ]
