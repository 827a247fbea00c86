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
    read, safe from any domain.  A runner from [load] may be shared by
    jobs on several domains (a serve tenant's is): what it binds is
    published atomically, and two domains racing on the first run may
    each derive it, never a different one. *)

type kind = Reference | Bytecode

type run_fn = ?fuel:int -> Exec.state -> Exec.outcome * Exec.stats
(** Same signature and default as {!Exec.run}: every run executes
    [main] with no arguments. *)

type t = private {
  kind : kind;
  label : string;
  load : Ir.Prog.t -> run_fn;
      (** [load p] is a runner bound to [p], for a caller that runs one
          program many times: whatever the backend derives from the
          program (the bytecode engine's compiled image) is made once
          per runner (see domain-safety above) and lives as long as
          the runner.  Given
          a state whose [prog] is not physically [p], the runner raises
          [Invalid_argument]. *)
  run : run_fn;
      (** One-shot: [run st] is [load st.prog st], so nothing outlives
          the call. *)
}

val make : kind:kind -> label:string -> load:(Ir.Prog.t -> run_fn) -> t
(** Builds a backend: wraps [load] with the identity guard and derives
    [run] from it, so a one-shot run and a bound run take one path. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
(** Accepts ["ref"], ["reference"], ["interp"], ["bytecode"], ["bc"],
    ["engine"] (case-insensitive). *)

val all_kinds : kind list

val reference : t
(** The tree-walking oracle; always registered.  Its [load] binds
    nothing but the guard: every run is {!Exec.run}. *)

val register : t -> unit
(** Called by engine libraries at link time (idempotent per kind). *)

val find_opt : kind -> t option

val find : kind -> t
(** Raises [Failure] when the backend's library is not linked into the
    running executable. *)
