(** Mini-librelp: the paper's §II-C proof-of-concept target
    (CVE-2018-1000140, scaled down).

    The model keeps the exploit-relevant structure of the real library
    one-for-one:

    - [relpTcpChkPeerName] accumulates every subject-alt-name of an
      attacker-supplied X.509 certificate into a fixed buffer with
      [iAllNames += snprintf(allNames + iAllNames, sizeof(allNames) -
      iAllNames, ...)] — once [iAllNames] crosses the buffer size the
      size argument goes negative, is consumed as [size_t], and the
      write becomes unbounded {e at an attacker-chosen offset} (the
      non-linear gap that sails over canaries);
    - the caller [relpTcpLstnInit] holds the DOP material: a session
      loop (gadget dispatcher) whose body dereferences and advances a
      pointer ([keyPtr]) used for session bookkeeping — a LOAD/MOV
      gadget pair.

    The exploit jumps the overflow over the callee's remaining frame
    into the caller's [keyPtr], redirecting it at the service's TLS
    private key; the loop then obligingly streams the key into the
    error log (the leak channel).  Goal predicate: the key's bytes
    appear in the output.

    Three attacker strategies are provided, matching §II-C:
    {!attack_static} (binary analysis), {!attack_disclosure} (probe run
    + marker scan, then exploit run — defeats the per-build
    randomizations), and brute force = {!attack_static} over seeds. *)

val source : string
val program : Ir.Prog.t Lazy.t

val key_leak_marker : string
(** Decimal rendering of the private key's first 8 bytes — its
    appearance in the output means the key leaked. *)

val benign_chunks : string list
(** A legitimate certificate: SANs ending with the matching peer name.
    Used to validate functional behaviour under every defense. *)

val attack_static : Dopkit.attack
(** One attempt, offsets from binary analysis (falling back to an
    Algorithm-1 guess against Smokestack); the request count is the
    number of certificate chunks delivered. *)

val attack_disclosure :
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  seed:int64 ->
  Attacks.Verdict.t
(** Probe run: plant a recognizable SAN, scan the stack for it and for
    the caller's pointer value to measure the true callee-to-caller
    distance; exploit run: use the measured distance.  Works against
    any per-build layout (static permutation, padding); fails against
    per-invocation layouts. *)

val attack_probe_then_exploit :
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  seed:int64 ->
  Attacks.Verdict.t
(** Same-run probe-then-exploit: disclose the live layout during the
    first callee invocation, exploit during a later one {e in the same
    process}.  Beats every static defense and any periodic
    re-randomization whose window spans two invocations; only
    per-invocation randomization (the paper's design point) closes
    it. *)

val attack_pseudo_state :
  backend:Machine.Backend.t ->
  Defenses.Defense.applied ->
  seed:int64 ->
  Attacks.Verdict.t
(** The paper's argument for disclosure-resistant randomness, made
    executable: disclose the [pseudo] scheme's generator state word
    from VM data memory, run the (invertible) xorshift {e backwards} to
    recover the draws that laid out the already-live caller and callee
    frames, replicate the public layout decode, and deliver the exploit
    {e within the same invocation} — deterministic success against a
    Smokestack build using the [pseudo] scheme, and a guaranteed miss
    against AES/RDRAND builds whose generator state the VM cannot
    address. *)
