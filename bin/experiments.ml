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
   stderr, after the report is written) or an internal error, 2 usage
   error. *)

open Cmdliner

let main engine jobs json entries =
  let backend = Machine.Backend.find engine in
  Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) json;
  let entries = if entries = [] then Harness.Registry.all else entries in
  Sched.Pool.with_pool ?jobs @@ fun pool ->
  let started = Unix.gettimeofday () in
  print_string Harness.Registry.preamble;
  let violations =
    List.concat_map
      (fun (e : Harness.Registry.entry) ->
        let o = e.run pool backend in
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
  Arg.(value & opt Cli.engine Machine.Backend.Reference & info [ "engine" ] ~docv:"ENGINE"
         ~doc:"Execution engine for every experiment: $(b,ref) or $(b,bytecode).")

let jobs =
  Arg.(value & opt (some Cli.jobs) None & info [ "jobs" ] ~docv:"N"
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
  let exits =
    Cli.exits ~ok:"when every headline invariant holds."
      ~failure:"when one fails (named on stderr, after the report), or on an internal error." []
  in
  let info = Cmd.info "experiments" ~exits ~doc:"Regenerate the paper-vs-measured report" in
  Cli.exit_with "experiments" @@ fun () ->
  Cmd.eval' ~catch:false (Cmd.v info Term.(const main $ engine $ jobs $ json $ entries))
