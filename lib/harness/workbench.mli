(** Running workloads under defenses, with the input chunking the
    I/O-bound applications expect (one network message per read). *)

val chunks_of_input : string -> string list
(** Splits a workload's input string into 48-byte messages
    (empty input means no messages). *)

val force_programs : Apps.Spec.workload list -> unit
(** Compile every workload's lazy program now, in the calling domain.
    Experiment job builders call this before submitting to a
    {!Sched.Pool}: forcing the same lazy concurrently from two domains
    is undefined in OCaml 5, so the force must happen sequentially. *)

val baseline : backend:Machine.Backend.t -> Apps.Spec.workload -> Machine.Exec.stats
(** No-defense run with seed 1 on [~backend], the workload's input
    split by {!chunks_of_input}.  Raises [Failure] if the program did
    not exit cleanly — a workload crash means the harness itself is
    broken.  Served from a process-wide in-memory store keyed on
    (workload source × no-hardening × engine kind × seed × input
    digest) — the engine kind is part of the key so a reference
    baseline is never served to a bytecode comparison.  Safe to call
    from parallel jobs; values are deterministic per key, so parallel,
    sequential, cold and warm runs observe identical stats. *)

val smokestack_stats :
  backend:Machine.Backend.t ->
  Smokestack.Config.t ->
  Apps.Spec.workload ->
  Machine.Exec.stats * int
(** Hardened run (build seed 3, run seed 1); also returns the P-BOX
    bytes of the hardened binary.
    Store-served like {!baseline}, with the config's
    [Smokestack.Config.fingerprint] in the key, so any config change
    (including selective hardening) gets its own entry. *)
