(** Top-level Smokestack API: compile-time hardening plus runtime
    installation.

    {[
      let hardened = Harden.harden Config.default prog in
      let st = Harden.prepare hardened ~entropy in
      let outcome, stats = Machine.Exec.run st in
      ...
    ]} *)

type t = {
  prog : Ir.Prog.t;  (** the hardened program (the input is not mutated) *)
  pbox : Pbox.t;
  config : Config.t;
  elided : string list;
      (** functions selective hardening left with their fixed layout
          (draw-preserving elision); [[]] unless [config.selective] *)
}

val harden : ?seed:int64 -> ?validate:bool -> Config.t -> Ir.Prog.t -> t
(** Runs the full pipeline on a copy of the program: allocation
    discovery → P-BOX generation (with the configured optimizations and
    row shuffles driven by [seed], default 1) → instrumentation →
    verification.  With [config.selective], the registered elision
    oracle first selects provably-safe functions to elide.

    When the static validator of [Analysis.Validate] has been
    registered (via [Analysis.Validate.install ()]) and [validate] is
    [true] (the default), the hardened result is also checked against
    the Smokestack security post-conditions — frame integrity, P-BOX
    soundness, index hygiene, FID pairing, and the per-function elision
    obligations — and a violation raises [Failure] whose message names
    the failed rule, the offending function, and (for P-BOX rows) the
    row.  Structural IR breakage is reported separately as a
    pass-manager failure, so the two are distinguishable.

    Raises [Failure] if the configuration is invalid, the program was
    already hardened (re-instrumenting a permuted frame would permute
    the opaque slab, not the variables), [config.selective] is set
    without an installed oracle, the instrumented IR fails
    verification, or validation finds a violation. *)

val prepare :
  ?entropy:Crypto.Entropy.t ->
  ?gen:Rng.Generator.t ->
  t ->
  Machine.Exec.state
(** {!Machine.Exec.prepare} (default heap and stack) followed by
    {!Runtime.install}.  [entropy] defaults to a source seeded from the
    OS.  [gen] passes a caller-owned generator through to the runtime
    (fault-injection and fail-open/fail-secure policy experiments); it
    must match the config's scheme. *)

val pbox_bytes : t -> int
(** Read-only bytes the P-BOX adds (Figure 4's numerator). *)

val permuted_functions : t -> string list
(** Names of functions that received the frame-permutation treatment
    (elided functions are not listed). *)

(** {2 Validation hooks}

    [lib/analysis] depends on this library, so its validator and
    elision oracle register themselves here
    ([Analysis.Validate.install ()]) rather than being called
    directly — the same inversion [Engine.Backend.install] uses.
    Executables that want hardening validated (or selective hardening
    at all) must call the install function once at startup. *)

type validator = original:Ir.Prog.t -> t -> (unit, string) result
(** [original] is the un-instrumented input program — the validator
    needs it to re-derive the elision proof obligations, which the
    hardened IR no longer exposes. *)

val set_validator : validator -> unit
val set_elision_oracle : (Ir.Prog.t -> string list) -> unit
val validator_installed : unit -> bool
