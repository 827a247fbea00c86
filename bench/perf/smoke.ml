(* Smoke test of the benchmark, run by [dune runtest]:

     smoke.exe PERF_EXE BENCHMARK_JSON

   Runs perf.exe --quick (one round of one unit on small inputs) over
   every workload, twice with the same seed, and once with a corrupted
   oracle, and checks that:
   - BENCHMARK.json lists the workloads perf.exe runs and the metrics the
     catalogue defines, with the same units, directions and bounds;
   - every metric it lists is printed, with its unit, for every workload;
   - every workload runs clean (error_rate 0) and its traced round
     replays the untraced one;
   - the deterministic metrics and per-layer counts repeat exactly;
   - a corrupted expected output is reported as a failure. *)

module J = Sutil.Json

let failures = ref 0

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let read path = In_channel.with_open_text path In_channel.input_all
let str k d = Option.bind (J.member k d) J.to_str_opt
let num k d = Option.bind (J.member k d) J.to_float_opt
let obj k d = match J.member k d with Some (J.Obj l) -> l | _ -> []

(* Run perf.exe with stdout to a file; the exit code and the output. *)
let run perf args ~out =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process perf (Array.of_list (perf :: args)) Unix.stdin fd Unix.stderr in
  Unix.close fd;
  let code = match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1 in
  (code, read out)

let last_line text =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' text)) with
  | l :: _ -> J.of_string_exn l
  | [] -> J.Null

(* BENCHMARK.json against the catalogue *)
let check_spec bench =
  let e2e = J.to_list (Option.value ~default:J.Null (J.member "end_to_end" bench)) in
  check
    (List.map (str "name") e2e = List.map Option.some Catalogue.universal)
    "BENCHMARK.json end_to_end must be exactly %s" (String.concat ", " Catalogue.universal);
  List.iter
    (fun m ->
      let n = Option.value ~default:"?" (str "name" m) in
      match Catalogue.find_e2e n with
      | None -> check false "end_to_end %s is not in the catalogue" n
      | Some c ->
          check
            (str "unit" m = Some c.unit_
            && str "better" m = Some (Catalogue.better_to_string c.better)
            && num "bound" m = Some c.bound)
            "end_to_end %s: unit, better or bound differs from the catalogue" n)
    e2e;
  let layers = J.to_list (Option.value ~default:J.Null (J.member "per_layer" bench)) in
  check
    (List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) layers
    = List.map
        (fun (n, u, b) -> (Some n, Some u, Some (Catalogue.better_to_string b)))
        Catalogue.layers)
    "BENCHMARK.json per_layer differs from the catalogue's layer metrics"

let workloads doc = J.to_list (Option.value ~default:J.Null (J.member "workloads" doc))
let wname d = Option.value ~default:"?" (str "workload" d)

let check_run ~bench ~trace_dir ~stdout doc =
  let listed section =
    List.map
      (fun m -> (Option.get (str "name" m), Option.get (str "unit" m)))
      (J.to_list (Option.value ~default:J.Null (J.member section bench)))
  in
  let lines = String.split_on_char '\n' stdout in
  let printed n u =
    List.exists
      (fun l ->
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | n' :: _ :: u' :: _ -> n' = n && u' = u
        | _ -> false)
      lines
  in
  let described d = (str "workload" d, str "why" d) in
  check
    (List.map described (workloads doc)
    = List.map
        (fun w -> (str "name" w, str "why" w))
        (J.to_list (Option.value ~default:J.Null (J.member "workloads" bench))))
    "BENCHMARK.json workloads differ from perf.exe's names and reasons";
  List.iter
    (fun d ->
      let w = wname d in
      List.iter
        (fun (section, key) ->
          List.iter
            (fun (n, u) ->
              let m = List.assoc_opt n (obj key d) in
              check
                (Option.bind m (str "unit") = Some u && printed n u)
                "%s: %s metric %s is not printed in %s" w section n u)
            (listed section))
        [ ("end_to_end", "metrics"); ("per_layer", "layers") ];
      let error_rate = Option.bind (List.assoc_opt "error_rate" (obj "metrics" d)) (num "value") in
      check (error_rate = Some 0.) "%s: error_rate is not 0" w;
      check
        (J.member "correct" d = Some (J.Bool true) && J.to_list (Option.get (J.member "notes" d)) = [])
        "%s: incorrect run (oracle, determinism or traced replay): %s" w
        (J.to_string (Option.value ~default:J.Null (J.member "notes" d)));
      let spans = Filename.concat trace_dir (w ^ ".jsonl") in
      check (Sys.file_exists spans && String.length (read spans) > 0) "%s: no spans in %s" w spans)
    (workloads doc)

(* Metrics that must repeat exactly: the deterministic ledger and the
   per-layer counts (GC counts depend on domain scheduling). *)
let deterministic doc =
  List.concat_map
    (fun d ->
      let w = wname d in
      let pick key keep =
        List.filter_map
          (fun (n, m) -> if keep n m then Some ((w, n), num "value" m) else None)
          (obj key d)
      in
      pick "metrics" (fun n _ -> List.mem n [ "vm_overhead_pct"; "pbox_kb"; "serve_p99_mcycles" ])
      @ pick "layers" (fun n m ->
            (not (String.starts_with ~prefix:"gc." n))
            && (str "unit" m = Some "count"
               || List.mem n
                    [ "core.pbox_kb"; "core.vm_overhead_pct"; "engine.mcycles"; "store.hit_rate";
                      "server.shed_rate"; "server.p99_mcycles" ])))
    (workloads doc)

let () =
  let perf, bench_path =
    match Sys.argv with
    | [| _; perf; bench |] ->
        ((if Filename.is_relative perf then Filename.concat (Sys.getcwd ()) perf else perf), bench)
    | _ ->
        prerr_endline "usage: smoke.exe PERF_EXE BENCHMARK_JSON";
        exit 2
  in
  let bench = J.of_string_exn (read bench_path) in
  check_spec bench;
  let quick seed_run =
    let trace_dir = "smoke-trace-" ^ seed_run in
    let json = "smoke-" ^ seed_run ^ ".json" in
    let code, stdout =
      run perf
        [ "--quick"; "--seed"; "1"; "--trace"; trace_dir; "--json"; json; "--workdir"; "smoke-work" ]
        ~out:("smoke-" ^ seed_run ^ ".out")
    in
    check (code = 0) "perf.exe --quick run %s exited %d" seed_run code;
    let doc = J.of_string_exn (read json) in
    check_run ~bench ~trace_dir ~stdout doc;
    doc
  in
  let a = quick "a" in
  let b = quick "b" in
  let da = deterministic a and db = deterministic b in
  check (List.length da > 20) "too few deterministic metrics (%d)" (List.length da);
  List.iter
    (fun (((w, n) as k), v) ->
      check (List.assoc_opt k db = Some v) "%s: %s differs between two runs of seed 1" w n)
    da;
  let code, stdout =
    run perf
      [ "--workload"; "run-corpus"; "--quick"; "--corrupt-oracle"; "--workdir"; "smoke-work" ]
      ~out:"smoke-corrupt.out"
  in
  let line = last_line stdout in
  let failed = Option.bind (J.member "failed" line) J.to_int_opt in
  check (code = 1 && Option.value ~default:0 failed > 0 && J.member "correct" line = Some (J.Bool false))
    "a corrupted oracle must fail the run (exit %d, failed %s)" code
    (match failed with Some f -> string_of_int f | None -> "?");
  if !failures > 0 then begin
    Printf.printf "bench/perf smoke test: %d failure(s)\n" !failures;
    exit 1
  end
