(* End-to-end tests of the compiled smokestackc binary: the documented
   exit-code contract (0 clean, 1 non-zero exit, 2 usage, 3
   compile/parse, 4 runtime fault) and the --chaos/--timeout flags, all
   driven through a real process so a shell script can rely on $?.  The
   smoke-* groups hold each subsystem's headline checks at full size:
   chaos exit codes, analyze and lint sweeps, serve and storm runs,
   campaign kill/resume, the attack compiler and the leak sweep. *)

let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/smokestackc.exe"

let experiments_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/experiments.exe"

let bench_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bench/main.exe"

let write_temp content =
  let path = Filename.temp_file "smokestackc_cli" ".c" in
  at_exit (fun () -> Sys.remove path);
  Out_channel.with_open_bin path (fun oc -> output_string oc content);
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A golden copied next to this test binary as a test dep. *)
let golden name = read_file (Filename.concat (Filename.dirname Sys.executable_name) name)

(* Run the binary, return (exit code, stdout+stderr); stdout only with
   [~stderr:false], since a report must be byte-identical across --jobs
   while stderr carries the host-dependent timing footer. *)
let run_cli ?(exe = exe) ?(stderr = true) args =
  let out = Filename.temp_file "smokestackc_out" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s %s" (Filename.quote exe)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out)
         (if stderr then "2>&1" else "2> /dev/null"))
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let run_cli_stdout = run_cli ~stderr:false

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let json_file path =
  match Sutil.Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not parse: %s" path e

let member what key j =
  match Sutil.Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "%s: no %S member" what key

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
  check_code "garbage jobs" 2 (run_cli [ "run"; "--jobs"; "many"; src ]);
  (* layouts refuses a function with no permuted frame and a sample
     count below 1 with one prefixed line *)
  List.iter
    (fun (what, args) ->
      let code, output = run_cli ([ "layouts"; src ] @ args) in
      check_code what 2 (code, output);
      Alcotest.(check bool)
        (what ^ ": one-line layouts diagnostic")
        true
        (String.starts_with ~prefix:"smokestackc: layouts: " output
        && not (String.contains (String.trim output) '\n')))
    [ ("layouts of an unpermuted function", [ "nope" ]);
      ("layouts --runs 0", [ "main"; "--runs"; "0" ]) ]

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
      Alcotest.(check bool) (needle ^ " present") true (contains output needle))
    [ "== seed 1 =="; "== seed 2 =="; "== seed 3 ==" ]

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
  let j = json_file json in
  Sys.remove json;
  match (Sutil.Json.member "clean" j, Sutil.Json.member "violations" j) with
  | Some (Sutil.Json.Bool true), Some (Sutil.Json.List []) -> ()
  | _ -> Alcotest.failf "unexpected lint JSON: %s" (Sutil.Json.to_string j)

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
  let j = json_file json in
  Sys.remove json;
  match Sutil.Json.member "pool" j with
  | Some (Sutil.Json.Obj _) -> ()
  | _ -> Alcotest.failf "serve --json lacks pool counters: %s" (Sutil.Json.to_string j)

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
  let j = json_file json in
  let text = Sutil.Json.to_string j in
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
  (* second run over a populated store: every key hits *)
  match Sutil.Json.member "hits" (member json "store" j) with
  | Some (Sutil.Json.Int 25) -> ()
  | _ -> Alcotest.failf "warm run did not hit every key: %s" text

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
    List.filter_map Sutil.Json.to_str_opt
      (Sutil.Json.to_list (member name "columns" (json_file (Filename.concat dir name))))
  in
  Alcotest.(check (list string)) "table1 columns"
    [ "source"; "security"; "measured cyc/draw"; "paper cyc/draw" ]
    (columns "BENCH_table1.json");
  Alcotest.(check (list string)) "rngsec columns"
    [ "attack"; "smokestack(pseudo)"; "smokestack(RDRAND)"; "smokestack(AES-1)"; "smokestack(AES-10)" ]
    (columns "BENCH_rngsec.json");
  check_code "unknown key" 2 (run_cli ~exe:experiments_exe [ "no-such-experiment" ])

(* --- help ----------------------------------------------------------- *)

(* The codes an EXIT STATUS section lists: each entry is a line indented
   by exactly seven spaces, its code first. *)
let exit_statuses help =
  let rec section = function
    | [] -> []
    | "EXIT STATUS" :: rest -> rest
    | _ :: rest -> section rest
  in
  let rec codes = function
    | line :: rest when line = "" || line.[0] = ' ' ->
        let entry =
          String.length line > 7
          && String.sub line 0 7 = "       "
          && line.[7] <> ' '
        in
        let code =
          if entry then
            int_of_string_opt (List.hd (String.split_on_char ' ' (String.trim line)))
          else None
        in
        Option.to_list code @ codes rest
    | _ -> []
  in
  codes (section (String.split_on_char '\n' help))

let test_help_exit_table () =
  List.iter
    (fun (what, exe, args, expected) ->
      let code, help = run_cli ~exe (args @ [ "--help=plain" ]) in
      check_code what 0 (code, help);
      Alcotest.(check (list int)) (what ^ " lists its exit table") expected
        (exit_statuses help))
    [
      ("smokestackc", exe, [], [ 0; 1; 2; 3; 4 ]);
      ("smokestackc run", exe, [ "run" ], [ 0; 1; 2; 3; 4 ]);
      ("experiments", experiments_exe, [], [ 0; 1; 2 ]);
      ("bench", bench_exe, [], [ 0; 1; 2 ]);
    ]

(* --- smoke ---------------------------------------------------------- *)

let with_temp_dir f =
  with_store_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  f dir

let chaos2_src =
  {|
int sum(int n) {
  int buf[8];
  int i;
  int acc;
  i = 0; acc = 0;
  while (i < 8) { buf[i] = i * n; i = i + 1; }
  i = 0;
  while (i < 8) { acc = acc + buf[i]; i = i + 1; }
  return acc;
}
int main() {
  int r;
  int k;
  k = 0; r = 0;
  while (k < 40) { r = r + sum(k); k = k + 1; }
  return 0;
}
|}

(* One plan per fault-site family (DESIGN.md §11) over two sources: a
   stuck or biased RDRAND degrades to AES-10 and still exits 0, a memory
   bit flip is absorbed (0) or trips the FID check (4), corrupting the
   FID assertion is always detected (4), and a never-firing plan changes
   nothing. *)
let test_smoke_chaos () =
  List.iter
    (fun (name, content) ->
      let src = write_temp content in
      let run plan args expected =
        let code, output = run_cli ([ "run"; "--harden"; "--chaos"; plan ] @ args @ [ src ]) in
        if not (List.mem code expected) then
          Alcotest.failf "%s, %s: exit %d, expected %s; output:\n%s" name plan code
            (String.concat " or " (List.map string_of_int expected))
            output;
        output
      in
      List.iter
        (fun plan ->
          if not (contains (run plan [ "--scheme"; "RDRAND" ] [ 0 ]) "RDRAND->AES-10") then
            Alcotest.failf "%s, %s: no RDRAND->AES-10 degradation line" name plan)
        [ "rng:ones@1"; "rng:bias=8@1" ];
      List.iter
        (fun plan -> ignore (run plan [ "--timeout"; "60" ] [ 0; 4 ]))
        [ "mem:stack:64:3@2000"; "mem:data:16:1@1500" ];
      ignore (run "intr:ss.fid_assert:xor=1@1" [] [ 4 ]);
      ignore (run "rng:ones@never" [ "--seeds"; "2" ] [ 0 ]))
    [ ("chaos.c", chaos_src); ("chaos2.c", chaos2_src) ]

let app_workloads = [ "proftpd"; "librelp"; "wireshark"; "gobmk"; "stack-direct" ]

let test_smoke_analyze () =
  with_temp_dir @@ fun dir ->
  List.iter
    (fun w ->
      let json = Filename.concat dir (w ^ ".json") in
      check_code ("analyze " ^ w) 0 (run_cli [ "analyze"; "--workload"; w; "--json"; json ]);
      let r = json_file json in
      ignore (member json "analyses" r);
      ignore (member json "pairs" r);
      Alcotest.(check (option string)) (w ^ ": report name") (Some w)
        (Sutil.Json.to_str_opt (member json "name" r)))
    app_workloads;
  (* nothing reads the document back, so one is pinned byte for byte *)
  let json = Filename.concat dir "stack-leaky.json" in
  check_code "analyze stack-leaky" 0
    (run_cli [ "analyze"; "--workload"; "stack-leaky"; "--json"; json ]);
  Alcotest.(check string) "matches analyze_stack_leaky.golden"
    (golden "analyze_stack_leaky.golden") (read_file json)

(* Every hardened build satisfies the validator's post-conditions: lint
   exits 0, and its JSON lists no violation. *)
let test_smoke_lint () =
  with_temp_dir @@ fun dir ->
  let lint what args =
    let json = Filename.concat dir (what ^ ".json") in
    check_code ("lint " ^ what) 0 (run_cli ([ "lint" ] @ args @ [ "--json"; json ]));
    match member json "violations" (json_file json) with
    | Sutil.Json.List [] -> ()
    | _ -> Alcotest.failf "lint %s: violations listed in %s" what json
  in
  List.iter (fun w -> lint w [ "--workload"; w ]) app_workloads;
  for seed = 1 to 20 do
    lint (Printf.sprintf "progen-%d" seed) [ "--progen"; string_of_int seed ]
  done

let test_smoke_lint_selective_mutants () =
  check_code "lint h264ref --selective --mutate 3" 0
    (run_cli [ "lint"; "--workload"; "h264ref"; "--selective"; "--mutate"; "3" ])

(* The summary rows of a serve --json report, as (metric, value). *)
let serve_rows path =
  List.filter_map
    (fun row ->
      match List.map Sutil.Json.to_str_opt (Sutil.Json.to_list row) with
      | [ Some k; Some v ] -> Some (k, v)
      | _ -> None)
    (Sutil.Json.to_list (member path "rows" (json_file path)))

let int_row rows key =
  match Option.bind (List.assoc_opt key rows) int_of_string_opt with
  | Some n -> n
  | None -> Alcotest.failf "serve report: no integer %S row" key

(* Every scheduled attack session got a batch verdict; that none
   mismatched is serve's own exit 0. *)
let check_attacks_checked what rows =
  let attacks = int_row rows "attack sessions" in
  let checked =
    match String.split_on_char '/' (List.assoc "batch-verdict mismatches" rows) with
    | [ _; checked ] -> int_of_string_opt checked
    | _ -> None
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: all %d attack sessions checked" what attacks)
    true
    (attacks > 0 && checked = Some attacks)

(* Runs [args] at --jobs 1 (plus [narrow]) and at --jobs 4 (plus
   [wide]), requires exit 0 and the same stdout from both, returns it. *)
let same_across_jobs ?(narrow = []) ?(wide = []) what args =
  let j1 = run_cli_stdout (args @ [ "--jobs"; "1" ] @ narrow) in
  let j4 = run_cli_stdout (args @ [ "--jobs"; "4" ] @ wide) in
  check_code (what ^ " --jobs 1") 0 j1;
  check_code (what ^ " --jobs 4") 0 j4;
  Alcotest.(check string) (what ^ ": stdout identical at --jobs 1 and 4") (snd j1) (snd j4);
  snd j1

let test_smoke_serve_mixed () =
  with_temp_dir @@ fun dir ->
  let json = Filename.concat dir "serve.json" in
  let out =
    same_across_jobs ~wide:[ "--json"; json ] "serve"
      [ "serve"; "--sessions"; "400"; "--tenants" ]
  in
  Alcotest.(check string) "matches serve_tenants.golden" (golden "serve_tenants.golden") out;
  Alcotest.(check (option string))
    "JSON title is the printed table title"
    (Some (List.hd (String.split_on_char '\n' out)))
    (Sutil.Json.to_str_opt (member json "title" (json_file json)));
  let rows = serve_rows json in
  Alcotest.(check bool) "nonzero throughput" true (int_row rows "throughput (rps @1GHz)" > 0);
  Alcotest.(check bool) "sessions served" true (int_row rows "served" > 0);
  check_attacks_checked "mixed traffic" rows

(* A tight WFQ queue (2 handlers, 8 waiting slots) where paying arrivals
   evict queued standard sessions: the per-class FIFOs admit, evict and
   start exactly what the recorded report says, at any pool width. *)
let test_smoke_serve_tight () =
  let out =
    same_across_jobs "tight serve"
      [ "serve"; "--sessions"; "400"; "--classes"; "--workers"; "2"; "--capacity"; "8" ]
  in
  Alcotest.(check string) "matches serve_wfq_tight.golden" (golden "serve_wfq_tight.golden") out

(* The control plane (DESIGN.md §16) under a fault storm: the breakers
   fire, the anonymous fleet rejects nothing, and affinity admits
   strictly fewer attack sessions than the anonymous fleet. *)
let test_smoke_serve_storm () =
  with_temp_dir @@ fun dir ->
  let storm = [ "serve"; "--storm"; "--sessions"; "400"; "--mean-gap"; "4000" ] in
  let on_json = Filename.concat dir "storm_serve.json" in
  let off_json = Filename.concat dir "storm_anon.json" in
  Alcotest.(check string) "matches serve_storm_affinity.golden"
    (golden "serve_storm_affinity.golden")
    (same_across_jobs ~wide:[ "--json"; on_json ] "storm serve"
       (storm @ [ "--affinity"; "--classes"; "--breaker"; "150000:2" ]));
  check_code "anonymous storm serve" 0
    (run_cli_stdout (storm @ [ "--jobs"; "4"; "--json"; off_json ]));
  let on = serve_rows on_json and off = serve_rows off_json in
  check_attacks_checked "breakers on" on;
  check_attacks_checked "breakers off" off;
  Alcotest.(check bool) "breakers rejected sessions" true (int_row on "rejected (breaker)" > 0);
  Alcotest.(check int) "anonymous fleet rejected nothing" 0 (int_row off "rejected (breaker)");
  let admitted_on = int_row on "attack sessions admitted" in
  let admitted_off = int_row off "attack sessions admitted" in
  Alcotest.(check bool)
    (Printf.sprintf "affinity admits fewer attack sessions (%d vs %d)" admitted_on admitted_off)
    true (admitted_on < admitted_off)

(* Complete records in a store's segment log (DESIGN.md §14): header
   lines "<32-hex id> <10-digit length> <32-hex md5>". *)
let store_records dir =
  let log = Filename.concat dir "log" in
  let hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  let digit c = c >= '0' && c <= '9' in
  let header line =
    let all p pos len = String.for_all p (String.sub line pos len) in
    String.length line = 76
    && line.[32] = ' '
    && line.[43] = ' '
    && all hex 0 32 && all digit 33 10 && all hex 44 32
  in
  if not (Sys.file_exists log) then 0
  else
    Array.fold_left
      (fun n seg ->
        let lines = String.split_on_char '\n' (read_file (Filename.concat log seg)) in
        n + List.length (List.filter header lines))
      0 (Sys.readdir log)

(* The store's headline invariant (DESIGN.md §14): a campaign SIGKILLed
   midway and resumed over the same store prints the report of an
   uninterrupted run.  2000 programs outlast the poll, and the test
   fails unless the kill lands. *)
let test_smoke_campaign_kill_resume () =
  with_store_dir @@ fun reference ->
  with_store_dir @@ fun killed ->
  let programs = 2000 in
  let campaign dir =
    [ "campaign"; "--progen"; string_of_int programs; "--jobs"; "4"; "--store"; dir ]
  in
  let uninterrupted = run_cli_stdout (campaign reference) in
  check_code "uninterrupted campaign" 0 uninterrupted;
  (* the campaign process itself, no shell between: SIGKILL must hit it *)
  let pid =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process exe (Array.of_list (exe :: campaign killed)) Unix.stdin null null)
  in
  let rec kill_at_100 () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when store_records killed >= 100 ->
        Unix.kill pid Sys.sigkill;
        snd (Unix.waitpid [] pid)
    | 0, _ ->
        Unix.sleepf 0.002;
        kill_at_100 ()
    | _, status -> status
  in
  (match kill_at_100 () with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | Unix.WEXITED code ->
      Alcotest.failf "campaign exited (code %d) before the kill: no resume to test" code
  | _ -> Alcotest.fail "campaign stopped by something other than the kill");
  let written = store_records killed in
  Alcotest.(check bool)
    (Printf.sprintf "killed with %d of %d records written" written programs)
    true (written < programs);
  let resumed = run_cli_stdout (campaign killed @ [ "--resume" ]) in
  check_code "resumed campaign" 0 resumed;
  Alcotest.(check string) "resume converges on the uninterrupted report" (snd uninterrupted)
    (snd resumed)

(* Each pool job generates its own Progen source from its seed, so the
   report (digest row included) does not depend on the pool width; a
   warm re-run then serves every key from the store. *)
let test_smoke_campaign_jobs_and_warm () =
  with_store_dir @@ fun j1_store ->
  with_store_dir @@ fun j4_store ->
  let campaign = [ "campaign"; "--progen"; "200" ] in
  ignore
    (same_across_jobs ~narrow:[ "--store"; j1_store ] ~wide:[ "--store"; j4_store ] "campaign"
       campaign);
  let json = Filename.temp_file "smokestackc_campaign" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove json) @@ fun () ->
  check_code "warm re-run" 0
    (run_cli (campaign @ [ "--jobs"; "4"; "--store"; j4_store; "--json"; json ]));
  let r = json_file json in
  let count obj key = Sutil.Json.to_int_opt (member json key obj) in
  let store = member json "store" r in
  Alcotest.(check (list (option int)))
    "warm re-run: 200 hits, 0 misses, 0 writes"
    [ Some 200; Some 0; Some 0 ]
    [ count store "hits"; count store "misses"; count store "writes" ];
  Alcotest.(check (option int)) "warm re-run: 200 programs" (Some 200)
    (count (member json "report" r) "programs")

(* The hardened campaign on the bytecode engine: its report (digest
   row included) is pinned at --jobs 1 and 4. *)
let test_smoke_campaign_hardened_golden () =
  with_store_dir @@ fun j1_store ->
  with_store_dir @@ fun j4_store ->
  Alcotest.(check string) "matches campaign_harden_bytecode.golden"
    (golden "campaign_harden_bytecode.golden")
    (same_across_jobs ~narrow:[ "--store"; j1_store ] ~wide:[ "--store"; j4_store ]
       "hardened campaign"
       [ "campaign"; "--progen"; "200"; "--harden"; "--engine"; "bytecode" ])

(* The offense loop's headline (DESIGN.md §15): a synthesized chain lands
   on the undefended build, none lands under full hardening, and the
   report is the same at any --jobs and with a cold or warm store.
   Grounding in static DOP pairs is attack's own exit 0. *)
let test_smoke_attack () =
  with_temp_dir @@ fun dir ->
  let attack =
    [ "attack"; "--workload"; "stack-direct"; "--workload"; "stack-indirect"; "--progen"; "10" ]
  in
  let json = Filename.concat dir "BENCH_offense.json" in
  let report = same_across_jobs ~wide:[ "--json"; json ] "attack" attack in
  let summary = member json "summary" (json_file json) in
  let count key =
    match Sutil.Json.to_int_opt (member json key summary) with
    | Some n -> n
    | None -> Alcotest.failf "%s: summary %S is not an integer" json key
  in
  Alcotest.(check bool) "a chain lands undefended" true (count "landed_unhardened" >= 1);
  Alcotest.(check int) "no chain survives full hardening" 0 (count "full_successes");
  let store_dir = Filename.concat dir "store" in
  let store = [ "--store"; store_dir ] in
  List.iter
    (fun run ->
      let out = run_cli_stdout (attack @ store) in
      check_code ("attack, " ^ run ^ " store") 0 out;
      Alcotest.(check string) (run ^ " store prints the store-less report") report (snd out))
    [ "cold"; "warm" ];
  (* the engine is part of every store key: over the store the ref runs
     filled, a bytecode run records its own verdicts, which a second
     bytecode run then replays *)
  let bytecode run =
    let out = run_cli_stdout (attack @ store @ [ "--engine"; "bytecode" ]) in
    check_code ("attack --engine bytecode, " ^ run ^ " store") 0 out;
    Alcotest.(check string) (run ^ " bytecode run prints the ref report") report (snd out);
    store_records store_dir
  in
  let ref_records = store_records store_dir in
  let cold = bytecode "cold" in
  Alcotest.(check bool)
    (Printf.sprintf "the bytecode run appends records (%d -> %d)" ref_records cold)
    true (cold > ref_records);
  Alcotest.(check int) "a second bytecode run appends none" cold (bytecode "warm")

(* A leak an attacker can see (E19's predicate): positive bits that reach
   an output or an oracle branch. *)
let visible_leaks what report =
  List.filter
    (fun leak ->
      match
        ( Sutil.Json.to_float_opt (member what "bits" leak),
          Sutil.Json.to_str_opt (member what "sink" leak) )
      with
      | Some bits, Some ("output" | "oracle-branch") -> bits > 0.
      | _ -> false)
    (Sutil.Json.to_list (member what "leaks" (member what "leakage" report)))

(* The leak analyzer (DESIGN.md §17): no visible leak on the 25
   leak-free programs, at least one on each of the 21 leak-shaped ones,
   and the leak degrades the Smokestack score wherever brute force is
   possible at all (Progen programs have no deliverable pair: inf stays
   inf). *)
let test_smoke_leaks () =
  with_temp_dir @@ fun dir ->
  let analyze name args =
    let json = Filename.concat dir (name ^ ".json") in
    check_code ("analyze --leaks " ^ name) 0
      (run_cli ([ "analyze"; "--leaks" ] @ args @ [ "--json"; json ]));
    (json, json_file json)
  in
  let seeds = List.init 20 (fun i -> string_of_int (9001 + i)) in
  List.iter
    (fun (name, args) ->
      let json, r = analyze name args in
      if visible_leaks json r <> [] then Alcotest.failf "false positive in %s" json)
    (List.map
       (fun w -> ("clean-" ^ w, [ "--workload"; w ]))
       [ "gobmk"; "mcf"; "hmmer"; "proftpd-io"; "wireshark-io" ]
    @ List.map (fun s -> ("clean-progen-" ^ s, [ "--progen"; s ])) seeds);
  List.iter
    (fun (name, args) ->
      let json, r = analyze name args in
      if visible_leaks json r = [] then Alcotest.failf "missed leak in %s" json;
      let smokestack key =
        match Sutil.Json.to_float_opt (member json "smokestack" (member json key r)) with
        | Some x -> x
        | None -> Alcotest.failf "%s: %s.smokestack is not a number" json key
      in
      let blind = smokestack "summary" in
      if blind <> Float.infinity && not (smokestack "summary_degraded" < blind) then
        Alcotest.failf "%s: the leak did not degrade the smokestack score" json)
    (("leaky-stack-leaky", [ "--workload"; "stack-leaky" ])
    :: List.map (fun s -> ("leaky-progen-" ^ s, [ "--progen"; s; "--leaky" ])) seeds)

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
          Alcotest.test_case "help lists the exit table" `Quick test_help_exit_table;
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
      ("smoke-chaos", [ Alcotest.test_case "two sources, six plans" `Quick test_smoke_chaos ]);
      ("smoke-analyze", [ Alcotest.test_case "workloads to JSON" `Quick test_smoke_analyze ]);
      ( "smoke-lint",
        [
          Alcotest.test_case "workloads and 20 Progen seeds" `Quick test_smoke_lint;
          Alcotest.test_case "selective mutants caught" `Quick test_smoke_lint_selective_mutants;
        ] );
      ( "smoke-serve",
        [
          Alcotest.test_case "mixed traffic" `Quick test_smoke_serve_mixed;
          Alcotest.test_case "tight WFQ golden" `Quick test_smoke_serve_tight;
          Alcotest.test_case "storm, breakers on and off" `Quick test_smoke_serve_storm;
        ] );
      ( "smoke-store",
        [
          Alcotest.test_case "kill and resume" `Quick test_smoke_campaign_kill_resume;
          Alcotest.test_case "jobs 1 vs 4, warm all hits" `Quick
            test_smoke_campaign_jobs_and_warm;
          Alcotest.test_case "hardened bytecode golden" `Quick
            test_smoke_campaign_hardened_golden;
        ] );
      ("smoke-attack", [ Alcotest.test_case "jobs and store" `Quick test_smoke_attack ]);
      ("smoke-leaks", [ Alcotest.test_case "clean and leak-shaped" `Quick test_smoke_leaks ]);
    ]
