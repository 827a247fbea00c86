(** Stateful generators for each {!module:Scheme}, with source health
    monitoring and a graceful-degradation chain.

    For [Pseudo] the generator also tracks its state word so the
    Smokestack runtime can mirror it into VM memory (and accept
    attacker-tampered values back) — see {!Pseudo}.  [Aes_ctr] keys and
    nonces come from the supplied entropy source and are periodically
    refreshed; [Rdrand] draws straight from the entropy source.

    {2 Health and degradation}

    Every {e hardware} ([Rdrand]) draw is screened by the SP 800-90B
    continuous tests in {!module:Health} (repetition count + adaptive
    proportion).  Software schemes are exempt — the 800-90B tests
    qualify a noise source, and AES-1's weak diffusion would
    legitimately trip the adaptive-proportion test even though it is a
    documented Table-I operating point.  When a test fails — or a
    {!set_tamper} hook reports the source unavailable (any scheme) —
    the generator {e degrades} according to its {!type:policy}:

    - [Fail_secure] (the default) walks the documented fallback chain
      [Rdrand → Aes_ctr {rounds = 10} → abort]: a failed hardware
      source is replaced by the strongest software scheme, and a
      failure of that (or of an initially-software scheme) raises
      {!exception:Source_failed} — the runtime converts this into a
      detection outcome rather than serving weak randomness;
    - [Fail_open] switches to [Pseudo] and keeps serving draws with
      health checks disabled — explicitly representable so the chaos
      experiment (E13) can measure what silent degradation costs.

    Each degradation is reported through {!set_on_degrade} (the
    Smokestack runtime forwards it as an [Ev_rng_degraded] trace
    event) and recorded in {!degradations}.  Degrading also clears any
    tamper hook: the fault modelled a defect of the physical source
    that was just abandoned.

    Domain-safety: this module holds no module-level mutable state —
    all state (pseudo word, AES key schedule, draw counter, health
    state) lives in the [t] instance.  A generator belongs to the job
    that created it; parallel jobs each create their own from an
    explicit seed. *)

type t

type policy = Fail_secure | Fail_open

type degradation = {
  from_scheme : Scheme.t;
  to_scheme : Scheme.t option;  (** [None] = fail-secure abort *)
  reason : string;
}

val degradation_to_string : degradation -> string
(** ["RDRAND->AES-10"], or ["AES-10->ABORT"] for a fail-secure abort. *)

exception Source_failed of string
(** Raised by {!next_u64} when a [Fail_secure] generator has no
    fallback left.  The Smokestack runtime turns it into
    {!Machine.Exec.Detect} so the VM reports a structured outcome. *)

type tampered = Value of int64 | Unavailable
(** What a fault-injection hook turns a raw hardware draw into:
    a (possibly corrupted) value, or a read failure. *)

val create :
  ?seed_state:int64 ->
  ?rekey_interval:int ->
  ?policy:policy ->
  ?health:Health.config ->
  Scheme.t ->
  entropy:Crypto.Entropy.t ->
  t
(** [seed_state] initializes the pseudo state word (default drawn from
    [entropy], as a real deployment would seed its PRNG once).
    [rekey_interval] bounds the AES-CTR blocks between key refreshes
    (default 65536 — the paper's universal call counter maximum).
    [policy] defaults to [Fail_secure]; [health] to {!Health.default}
    (always on — the cutoffs are unreachable by a healthy source). *)

val current_scheme : t -> Scheme.t
(** The scheme currently serving draws: the one given to {!create}
    until a degradation switches to a fallback. *)

val next_u64 : t -> int64
(** One 64-bit draw, screened by the health tests when the serving
    scheme is hardware; transparently switches to the fallback scheme
    on failure.  Raises
    {!exception:Source_failed} only under [Fail_secure] with the
    chain exhausted. *)

val degradations : t -> degradation list
(** Every degradation so far, oldest first. *)

val set_on_degrade : t -> (degradation -> unit) -> unit
(** Called synchronously at each degradation, before the fallback
    serves its first draw. *)

val set_tamper : t -> (scheme:Scheme.t -> draw:int -> int64 -> tampered) -> unit
(** Install a fault-injection hook between the raw source and the
    health tests: it sees each raw draw (with the live scheme and the
    1-based draw index) and returns what the hardware "really"
    delivered.  Cleared automatically when the generator degrades. *)

val pseudo_state : t -> int64
(** Current state word. Raises [Invalid_argument] when the current
    scheme is not [Pseudo]. *)

val set_pseudo_state : t -> int64 -> unit
(** Overwrite the state word (models the attacker, or the runtime
    reading the word back from VM memory).  Raises [Invalid_argument]
    when the current scheme is not [Pseudo]. *)
