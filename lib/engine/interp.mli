(** Bytecode dispatch loop.

    Runs a prepared {!Machine.Exec.state} by compiling its program to
    bytecode (cached per program, {e per domain} — the MRU cache lives
    in domain-local storage, so concurrent {!Sched.Pool} jobs never
    share or invalidate each other's compiled images) and executing a
    flat dispatch loop over unboxed [Bytes] register frames that
    allocates nothing per instruction.  Preserves the reference
    interpreter's full observable contract — identical outcomes, program
    output, cycle/instruction/call accounting, memory faults, detection
    events and trace emission — which [test/test_engine.ml] checks
    differentially against {!Machine.Exec.run} on fuzzed programs and
    every application workload. *)

val run :
  ?fuel:int ->
  ?entry:string ->
  ?args:int64 list ->
  Machine.Exec.state ->
  Machine.Exec.outcome * Machine.Exec.stats
(** Drop-in replacement for {!Machine.Exec.run} (same defaults).  The
    state is consumed: run each prepared state once. *)
