(** Chain executor — step 4 of the attack compiler: run a synthesized
    chain against one defense-applied build and judge it.

    Each run is one {!Apps.Runner.run_chunks} process whose state is
    kept through [~arm], so a {!Chain.Flip_global} goal is judged from
    the global's actual in-memory value after the run — the semantic
    witness — rather than from program output.  Everything reported is
    derived from the outcome, the output and final memory, all of which
    the engine contract keeps bit-identical across backends. *)

val final_global : Machine.Exec.state -> string -> int64
(** The named global's 8-byte value in the state's memory — read after
    a run, the semantic witness of a {!Chain.Flip_global} goal.  Raises
    [Invalid_argument] when the build does not define the global. *)

val run_chain :
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  Chain.t ->
  seed:int64 ->
  Attacks.Verdict.t
(** Lower, deliver, judge.  An impossible layout guess wastes the
    attempt ({!Attacks.Verdict.No_effect}); a defense check firing is
    {!Attacks.Verdict.Detected}; {!Chain.Output_differs} runs the
    benign length-matched baseline under the same seed. *)

val brute_guided :
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  Chain.t ->
  disclosed:string list ->
  budget:int ->
  seed0:int ->
  Attacks.Verdict.t list
(** {!brute} with disclosure-guided sessions, against a target that
    {e prints} slot addresses (the {!Analysis.Leakan} address-disclosure
    channel, cf. {!Plan.leak_guides}).  Convention: the target emits one
    integer line per slot of [disclosed], in that order, before its
    first read.  The attacker adapts within each session —
    per-invocation randomization makes stale addresses worthless —
    parsing the lines from live output, pinning each disclosed slot's
    buffer-relative offset (address differences are base-invariant) and
    guessing only the rest ({!Payload.lower_pinned}).  [disclosed] must
    contain [chain.buffer]; judging is exactly {!run_chain}'s.  A
    session whose target never discloses, or whose combined layout is
    geometrically impossible, wastes the attempt.  The expected length
    is the {!Analysis.Report} leak-degraded attempt count rather than
    the blind Algorithm-1 one. *)

val trials :
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  Chain.t ->
  n:int ->
  seed0:int ->
  Attacks.Verdict.t list
(** [n] independent attempts with seeds [seed0 + 1000*i] (the
    {!Harness.Security.trials} convention), in trial order. *)

val brute :
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  Chain.t ->
  budget:int ->
  seed0:int ->
  Attacks.Verdict.t list
(** Restart-after-crash brute force: {!Attacks.Bruteforce.run} over
    seeds [seed0 + i], stopping at the first success or when the budget
    is spent.  Returns every attempt's verdict (the list length is the
    attempts consumed); {!Attacks.Bruteforce.attempts_to_success} turns
    it into attempts-to-success. *)
