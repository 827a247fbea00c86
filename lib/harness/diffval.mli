(** Differential validation of execution engines.

    Runs identical prepared programs under the reference interpreter
    ({!Machine.Exec.run}) and the bytecode engine ({!Engine.Interp.run})
    and checks every observable for bit-identity: outcome, program
    output, and each {!Machine.Exec.stats} field — including the float
    cycle count, whose additions are order-sensitive, so a reassociated
    or dropped charge cannot hide.  [test/test_engine.ml] runs these
    checks as tier-1 tests. *)

type mismatch = {
  case : string;  (** e.g. ["gobmk/smokestack"] or ["progen seed 17"] *)
  field : string;  (** first observable that diverged *)
  expected : string;  (** reference interpreter's value *)
  actual : string;  (** bytecode engine's value *)
}

type report = { cases : int; mismatches : mismatch list }

val ok : report -> bool
val report_to_string : report -> string

val compare_observables :
  case:string ->
  Machine.Exec.outcome * Machine.Exec.stats ->
  Machine.Exec.outcome * Machine.Exec.stats ->
  mismatch list
(** Every observable of two runs of one program, the reference's first:
    the mismatches in field order, [[]] when the runs are identical. *)

val check_apps : unit -> report
(** Every {!Apps.Spec.all} workload under both [No_defense] and the
    default Smokestack configuration, run sequentially with seed 1 and
    400 million instructions of fuel; mismatches in (workload, defense)
    order. *)

val check_progen : ?pool:Sched.Pool.t -> seed:int64 -> int -> report
(** [check_progen ~seed n] validates [n] Progen-generated programs with
    seeds [seed, seed+1, ...] (deterministic, input-free, 2 million
    instructions of fuel).  One job per seed. *)
