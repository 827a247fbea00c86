(* Runs every Harness.Registry entry under each execution engine and
   compares its report section with the same section of the committed
   EXPERIMENTS.md, so a moved headline is blamed on its entry (and
   engine) rather than on a whole-report diff.  Each entry's headline
   invariants must hold too.  Then checks that the entries' table names,
   the BENCH_<name>.json stems, are unique and are exactly the stems
   `experiments.exe --json` writes and CI archives.

   Usage: registry_report.exe EXPERIMENTS.md
   Exit codes: 0 every section matches and every invariant holds under
   both engines, 1 a section differs (the first such entry and its
   first differing line go to stderr), an invariant failed (named on
   stderr) or the stems moved. *)

let stems =
  [ "table1"; "fig3"; "fig4"; "bypass"; "pentest"; "realvuln"; "ablation"; "brute"; "entropy";
    "rngsec"; "rerand"; "analysis"; "crossval"; "chaos"; "chaos_policy"; "selective";
    "selective_diff"; "server"; "server_tenants"; "campaign"; "offense"; "offense_synth";
    "offense_entropy"; "offense_feedback"; "resilience"; "resilience_fleet";
    "resilience_classes"; "leaks"; "leaks_guided" ]

let find_from s ~from sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go from

(* The committed section of [e]: from its heading line to the next
   entry's heading (or the end of the report). *)
let committed_section report (e : Harness.Registry.entry) next =
  let heading (e : Harness.Registry.entry) = "## " ^ Harness.Registry.heading e ^ "\n" in
  match find_from report ~from:0 (heading e) with
  | None -> None
  | Some start ->
      let stop =
        match next with
        | None -> Some (String.length report)
        | Some n -> find_from report ~from:start (heading n)
      in
      Option.map (fun stop -> String.sub report start (stop - start)) stop

let first_difference expected got =
  let rec go i = function
    | e :: es, g :: gs when String.equal e g -> go (i + 1) (es, gs)
    | e :: _, g :: _ -> Printf.sprintf "section line %d:\n  committed: %s\n  generated: %s" i e g
    | e :: _, [] -> Printf.sprintf "section line %d: committed has %S, generated ended" i e
    | [], g :: _ -> Printf.sprintf "section line %d: generated has %S, committed ended" i g
    | [], [] -> "no line differs"
  in
  go 1 (String.split_on_char '\n' expected, String.split_on_char '\n' got)

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
        prerr_endline "usage: registry_report.exe EXPERIMENTS.md";
        exit 2
  in
  let report = In_channel.with_open_bin path In_channel.input_all in
  Harness.Registry.setup ();
  if not (String.starts_with ~prefix:Harness.Registry.preamble report) then begin
    prerr_endline "registry-report: the report preamble differs";
    exit 1
  end;
  Sched.Pool.with_pool @@ fun pool ->
  let rec check (backend : Machine.Backend.t) names = function
    | [] -> List.rev names
    | (e : Harness.Registry.entry) :: rest ->
        let engine = Machine.Backend.kind_to_string backend.kind in
        let o = e.run pool backend in
        let got = Harness.Registry.section e o in
        (match committed_section report e (List.nth_opt rest 0) with
        | Some expected when String.equal expected got -> ()
        | Some expected ->
            Printf.eprintf "registry-report: %s (%s, --engine=%s) differs from %s, %s\n" e.id e.key
              engine path (first_difference expected got);
            exit 1
        | None ->
            Printf.eprintf "registry-report: %s (%s) has no section in %s\n" e.id e.key path;
            exit 1);
        (match Harness.Registry.violations e o with
        | [] -> ()
        | violations ->
            List.iter (Printf.eprintf "registry-report (--engine=%s): %s\n" engine) violations;
            exit 1);
        Printf.printf "%s %s (--engine=%s): matches, invariants hold\n%!" e.id e.key engine;
        check backend (List.rev_append (Harness.Output.names o.output) names) rest
  in
  let on_engine kind = check (Machine.Backend.find kind) [] Harness.Registry.all in
  let names = on_engine Machine.Backend.Reference in
  ignore (on_engine Machine.Backend.Bytecode : string list);
  let sorted = List.sort String.compare in
  if List.length (List.sort_uniq String.compare names) <> List.length names then begin
    Printf.eprintf "registry-report: duplicate table names in %s\n" (String.concat " " names);
    exit 1
  end;
  if sorted names <> sorted stems then begin
    Printf.eprintf "registry-report: table names %s, expected %s\n" (String.concat " " names)
      (String.concat " " stems);
    exit 1
  end;
  Printf.printf "%d table names: unique and as expected\n" (List.length names)
