(** The Smokestack runtime (the paper's compiler-rt additions).

    Installs the {!module:Abi} intrinsics into a prepared machine
    state:

    - {!Abi.intr_rand} / {!Abi.intr_pad} draw from the configured
      scheme, charging its Table-I cycle cost.  For the [pseudo] scheme
      the generator state is kept in the VM's writable
      {!Abi.prng_state_global} — readable and writable by the threat
      model's attacker;
    - {!Abi.intr_fid_key} returns the per-run XOR key, which lives in
      the OCaml heap (modelling a reserved register — the threat model
      explicitly denies the attacker register access);
    - {!Abi.intr_fid_assert} raises {!Machine.Exec.Detect} on mismatch;
    - {!Abi.intr_layout_dynamic} decodes a fresh permutation for
      oversized frames and writes the per-slot offsets to the frame's
      scratch area.

    The runtime also wires the generator's graceful-degradation chain
    (see {!Rng.Generator}): every degradation is forwarded to the
    state's trace hook as an [Ev_rng_degraded] event, draw costs follow
    the scheme actually serving draws, and a fail-secure abort
    ({!Rng.Generator.Source_failed}) is converted to
    {!Machine.Exec.Detect} so every run still ends in a structured
    outcome. *)

val install :
  ?gen:Rng.Generator.t ->
  Config.t ->
  pbox:Pbox.t ->
  entropy:Crypto.Entropy.t ->
  Machine.Exec.state ->
  unit
(** Registers all intrinsics and seeds the in-VM pseudo state (when the
    scheme needs it).  The entropy source supplies the AES keys/nonces,
    RDRAND draws, pseudo seed, and FID key.  [gen] substitutes a
    caller-owned generator (the chaos experiments pass one with a
    fault-injection tamper armed, or a [Fail_open] policy); it must
    have been created with the config's scheme.  Note the [pseudo]
    scheme routes draws through VM memory, bypassing any generator —
    RNG fault plans apply to the hardware-backed schemes only. *)

val dynamic_offsets_for_draw : Pbox.dyn_binding -> int64 -> int array
(** The layout an oversized frame gets for a given {!Abi.intr_rand}
    draw — the deterministic decode the runtime performs at the
    prologue.  Public because the defense's design is public
    (Kerckhoffs): an attacker who learns a draw (e.g. by disclosing the
    [pseudo] scheme's in-memory state) replicates exactly this. *)
