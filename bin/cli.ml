(* The command-line pieces the three front-ends share (smokestackc,
   experiments.exe, bench/main.exe): the exit-status table their --help
   lists, the --engine and --jobs converters, and the evaluation that
   maps cmdliner's own errors onto that table. *)

open Cmdliner

let exit_usage = 2

(* The EXIT STATUS section of --help: 0, 1 and 2 for every front-end,
   then [more] (smokestackc's 3 and 4).  It replaces cmdliner's default
   0/123/124/125, none of which [exit_with] lets escape. *)
let exits ~ok ~failure more =
  Cmd.Exit.info 0 ~doc:ok
  :: Cmd.Exit.info 1 ~doc:failure
  :: Cmd.Exit.info exit_usage
       ~doc:"on a usage error: an unknown flag or key, or a bad or missing value."
  :: more

let engine =
  let parse s =
    match Machine.Backend.kind_of_string s with
    | Some kind -> Ok kind
    | None -> Error (`Msg (Printf.sprintf "unknown engine %S (ref, bytecode)" s))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Machine.Backend.kind_to_string k))

let jobs =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "bad --jobs value %S (want a positive integer)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Diagnostics are one line: the first line of a multi-line message
   carries the location and summary; the rest is detail for the IR
   tools, not for a shell script checking $?. *)
let one_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Runs [eval] (a [Cmd.eval ~catch:false ...]) and exits with its code:
   an escaped exception becomes a one-line diagnostic and exit 1, not a
   backtrace and 125, and cmdliner's CLI errors (124) become exit 2. *)
let exit_with name eval =
  let code =
    try eval ()
    with e ->
      Printf.eprintf "%s: error: %s\n" name (one_line (Printexc.to_string e));
      1
  in
  exit (if code = Cmd.Exit.cli_error then exit_usage else code)
