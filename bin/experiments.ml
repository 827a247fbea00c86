(* experiments — regenerate EXPERIMENTS.md from live runs.

   Usage: dune exec bin/experiments.exe
            [-- [--engine=ENGINE] [--jobs=N] [--json DIR] [KEY ...]]
   Prints the paper-vs-measured report on stdout, one section per
   Harness.Registry entry (default: all of them, in report order; the
   keys select entries, e.g. `table1 fig3`).  --json DIR also writes
   every table of the selected entries as DIR/BENCH_<name>.json.
   --engine=bytecode runs every experiment on the compiled engine
   (differentially validated against the reference; see DESIGN.md).
   --jobs=N fans experiment cells out over N domains; the report is
   byte-identical for every N (results merge in submission order).

   Exit codes: 0 every headline invariant holds, 1 one failed (named on
   stderr, after the report is written), 2 usage error. *)

open Cmdliner

let main engine jobs json entries =
  Option.iter Machine.Backend.set_default engine;
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) json;
  let entries = if entries = [] then Harness.Registry.all else entries in
  Sched.Pool.with_pool ?jobs @@ fun pool ->
  let started = Unix.gettimeofday () in
  print_string Harness.Registry.preamble;
  let violations =
    List.concat_map
      (fun (e : Harness.Registry.entry) ->
        let o = e.run pool in
        print_string (Harness.Registry.section e o);
        flush stdout;
        Option.iter (fun dir -> Harness.Output.write_json ~dir o.output) json;
        Harness.Registry.violations e o)
      entries
  in
  (* stderr, not the report: the report must be byte-identical across
     --jobs values (and across hosts). *)
  let pstats = Sched.Pool.stats pool in
  Printf.eprintf
    "report generated in %.1f s of wall time; pool: %d jobs, %d retries, %d \
     timeouts, peak queue %d\n"
    (Unix.gettimeofday () -. started)
    pstats.jobs_run pstats.retries pstats.timeouts pstats.peak_queue;
  List.iter prerr_endline violations;
  Harness.Registry.exit_code violations

let engine =
  let parse s =
    match Machine.Backend.kind_of_string s with
    | Some kind -> Ok kind
    | None -> Error (`Msg (Printf.sprintf "unknown engine %S (ref, bytecode)" s))
  in
  let print fmt k = Format.pp_print_string fmt (Machine.Backend.kind_to_string k) in
  Arg.(value & opt (some (conv (parse, print))) None & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Execution engine for every experiment: $(b,ref) or $(b,bytecode).")

let jobs =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "bad --jobs value %S (want a positive integer)" s))
  in
  Arg.(value & opt (some (conv (parse, Format.pp_print_int))) None & info [ "jobs" ] ~docv:"N"
         ~doc:"Worker domains (default: the host's recommended count).")

let json =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"DIR"
         ~doc:"Also write every table as $(i,DIR)/BENCH_<name>.json.")

let entries =
  let keyed = List.map (fun (e : Harness.Registry.entry) -> (e.key, e)) Harness.Registry.all in
  let doc = "Experiments to run (default: all): " ^ String.concat ", " (List.map fst keyed) in
  Arg.(value & pos_all (enum keyed) [] & info [] ~docv:"KEY" ~doc)

let () =
  Harness.Registry.setup ();
  let info = Cmd.info "experiments" ~doc:"Regenerate the paper-vs-measured report" in
  let code = Cmd.eval' (Cmd.v info Term.(const main $ engine $ jobs $ json $ entries)) in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
