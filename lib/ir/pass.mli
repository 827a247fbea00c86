(** Pass manager.

    Mirrors the structure of the paper's implementation (§IV): analysis
    and instrumentation are organized as function passes and module
    passes run in a pipeline.  Every pass run is followed by IR
    verification unless disabled.  The manager is stateless: it keeps
    no timings and takes no lock, so pipelines on several domains never
    contend; the [bench/perf] spans time the passes from outside. *)

type t =
  | Function_pass of { name : string; run : Prog.t -> Func.t -> unit }
  | Module_pass of { name : string; run : Prog.t -> unit }

val run :
  ?verify:bool -> ?post:(Prog.t -> (unit, string) result) -> t list -> Prog.t -> unit
(** Runs the pipeline in order.  With [verify] (default [true]) the
    program is verified after each pass; a failure identifies the
    offending pass in the exception message ("pass NAME broke IR
    invariants").  [post], when given, runs once after the whole
    pipeline (and its structural verification) succeeded; an [Error]
    raises [Failure] with the distinct "pipeline post-condition
    validation failed" prefix, so structural breakage and semantic
    post-condition breakage are distinguishable from the message alone.
    The Smokestack hardening pipeline uses it to run the static
    validator of [Analysis.Validate]. *)
