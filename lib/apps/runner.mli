(** Running defense-applied programs under attacker-supplied input.

    Each run models one service process: fresh state (the default
    {!Machine.Exec.prepare} heap and stack), fresh per-run entropy
    (derived from [seed] so experiments are reproducible), and an input
    source that answers the program's [read_input]/[input_byte]
    calls.  Restart-after-crash is simply another [run_*] call with the
    next seed.

    [~backend] is the execution engine ({!Machine.Backend}) the run
    uses; callers pass it down from the front-end's [--engine].

    [?arm] sees the prepared state after the defense runtime is
    installed and before execution — the hook the server runtime and
    the chaos machinery use to arm {!Fault.Inject} plans on per-session
    states. *)

val run_chunks :
  backend:Machine.Backend.t ->
  ?arm:(Machine.Exec.state -> unit) ->
  ?fuel:int ->
  Defenses.Defense.applied ->
  seed:int64 ->
  chunks:string list ->
  Machine.Exec.outcome * Machine.Exec.stats
(** Each [read_input] call consumes the next chunk whole (truncated to
    the callee's limit); after the list is exhausted, reads return
    empty.  This models one network message per read, which is how the
    exploit payloads are framed. *)

val run_adaptive :
  backend:Machine.Backend.t ->
  ?arm:(Machine.Exec.state -> unit) ->
  ?fuel:int ->
  Defenses.Defense.applied ->
  seed:int64 ->
  input:(Machine.Exec.state -> int -> string) ->
  Machine.Exec.outcome * Machine.Exec.stats
(** Full control: the callback sees the live machine state (the
    disclosure-capable attacker of the threat model). *)
