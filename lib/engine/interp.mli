(** Bytecode dispatch loop.

    Executes a {!Compile.program} against a prepared
    {!Machine.Exec.state} of the program it was compiled from, in a
    flat dispatch loop over unboxed [Bytes] register frames that
    allocates nothing per instruction.  The image is read-only here, so
    one image may serve any number of states, on any domain; who keeps
    it, and for how long, is {!Backend.backend}'s [load].  Preserves the
    reference interpreter's full observable contract — identical
    outcomes, program output, cycle/instruction/call accounting, memory
    faults, detection events and trace emission — which
    [test/test_engine.ml] checks differentially against
    {!Machine.Exec.run} on fuzzed programs and every application
    workload. *)

val run :
  ?fuel:int ->
  Compile.program ->
  Machine.Exec.state ->
  Machine.Exec.outcome * Machine.Exec.stats
(** [run image st] is a drop-in replacement for {!Machine.Exec.run}
    (same fuel default; [main] with no arguments, with the same faults
    when it is missing or takes parameters), where [image] is
    {!Compile.compile} of a state of [st.prog].  The state is consumed: run each prepared state once. *)
