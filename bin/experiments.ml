(* experiments — regenerate EXPERIMENTS.md from live runs.

   Usage: dune exec bin/experiments.exe
            [-- [--engine=ENGINE] [--jobs=N] OUTPUT.md]
   Writes the full paper-vs-measured report (defaults to stdout), one
   section per Harness.Registry entry.  --engine=bytecode runs every
   experiment on the compiled engine (differentially validated against
   the reference; see DESIGN.md).  --jobs=N fans experiment cells out
   over N domains; the report is byte-identical for every N (results
   merge in submission order).

   Exit codes: 0 every headline invariant holds, 1 one failed (named on
   stderr, after the report is written), 2 usage error. *)

open Cmdliner

let main engine jobs output =
  Option.iter Machine.Backend.set_default engine;
  Sched.Pool.with_pool ?jobs @@ fun pool ->
  let started = Unix.gettimeofday () in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf Harness.Registry.preamble;
  let violations =
    List.concat_map
      (fun (e : Harness.Registry.entry) ->
        let o = e.run pool in
        Buffer.add_string buf (Harness.Registry.section e o);
        Harness.Registry.violations e o)
      Harness.Registry.all
  in
  (* stderr, not the report: the report must be byte-identical across
     --jobs values (and across hosts). *)
  let pstats = Sched.Pool.stats pool in
  Printf.eprintf
    "report generated in %.1f s of wall time; pool: %d jobs, %d retries, %d \
     timeouts, peak queue %d\n"
    (Unix.gettimeofday () -. started)
    pstats.jobs_run pstats.retries pstats.timeouts pstats.peak_queue;
  (match output with
  | None -> print_string (Buffer.contents buf)
  | Some path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (Buffer.contents buf));
      Printf.printf "wrote %s\n" path);
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

let output =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"OUTPUT.md"
         ~doc:"Write the report here instead of stdout.")

let () =
  Harness.Registry.setup ();
  let info = Cmd.info "experiments" ~doc:"Regenerate the paper-vs-measured report" in
  let code = Cmd.eval' (Cmd.v info Term.(const main $ engine $ jobs $ output)) in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
