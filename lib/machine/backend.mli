(** Pluggable execution backends.

    The reference tree-walking interpreter ({!Exec.run}) is the
    semantic oracle; faster engines (the bytecode engine in
    [lib/engine]) register themselves here.  There is no process-wide
    default: every function that executes a program takes the backend
    from its caller, and the CLIs resolve [--engine] with {!find} once
    and pass the result down.  Every backend consumes a prepared
    {!Exec.state} and must preserve the full observable contract:
    identical outcomes, program output, cycle accounting, fault and
    detection events, and trace emission.

    Domain-safety: the registry is mutated only by library
    initializers at link time, strictly before any {!Sched.Pool}
    worker domains exist.  After startup every operation here is a
    read, safe from any domain. *)

type kind = Reference | Bytecode

type run_fn =
  ?fuel:int -> ?entry:string -> ?args:int64 list -> Exec.state -> Exec.outcome * Exec.stats
(** Same signature and defaults as {!Exec.run}. *)

type t = { kind : kind; label : string; run : run_fn }

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
(** Accepts ["ref"], ["reference"], ["interp"], ["bytecode"], ["bc"],
    ["engine"] (case-insensitive). *)

val all_kinds : kind list

val reference : t
(** The tree-walking oracle; always registered. *)

val register : t -> unit
(** Called by engine libraries at link time (idempotent per kind). *)

val find_opt : kind -> t option

val find : kind -> t
(** Raises [Failure] when the backend's library is not linked into the
    running executable. *)
