(** Security experiments (paper §II-C and §V-C).

    Every cell is a set of independent exploit attempts (fresh process,
    fresh per-run entropy) of one attack against one defense-applied
    program.  Success rates estimate the probability a single attempt
    lands; a defense "stops" an attack when that probability collapses
    from ~1 to ~1/permutation-space.  Every experiment runs its
    attempts on the [~backend] its caller passes, and applies its
    defenses with build seed 3. *)

type cell = {
  attack_name : string;
  defense : Defenses.Defense.t;
  verdicts : Attacks.Verdict.t list;
  success_rate : float;
}

type t = { title : string; cells : cell list }

val trials :
  (Defenses.Defense.applied -> seed:int64 -> Attacks.Verdict.t) ->
  Defenses.Defense.applied ->
  n:int ->
  seed0:int ->
  Attacks.Verdict.t list
(** [n] independent attempts with seeds [seed0 + 1000*i], run in trial
    order in the calling domain: the experiment drivers below
    parallelize at cell granularity and call this from inside their
    jobs. *)

val pentest :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?trials_per_cell:int ->
  unit ->
  t
(** E5 — the synthetic {direct,indirect} x {stack,data,heap} matrix
    against all six defenses.  One job per (attack, defense) cell. *)

val bypass_prior : ?pool:Sched.Pool.t -> backend:Machine.Backend.t -> unit -> t
(** E4 — the librelp PoC against the prior stack randomizations, via
    both attacker strategies (binary analysis; probe-then-exploit
    disclosure).  For the per-build defenses each of 12 trials uses a
    fresh build, so the rate reads "fraction of builds exploitable".
    One job per (strategy, defense) cell. *)

val realvuln :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?trials_per_cell:int ->
  unit ->
  t
(** E6 — librelp key leak, Wireshark CVE-2014-2299, and the three
    ProFTPD CVE-2006-5815 exploits: undefended vs Smokestack (AES-10).
    One job per (exploit, defense) cell. *)

val rng_security :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?trials_per_cell:int ->
  unit ->
  t
(** E10 (extension) — why the randomness source matters: the
    state-disclosure prediction attack (read the pseudo generator's
    in-memory word, invert xorshift, replicate the public layout
    decode, exploit within the same invocation) against each of the
    four schemes.  Expected: ~100% against [pseudo], 0% against the
    AES and RDRAND schemes, whose state the VM cannot address. *)

type rerand_row = { interval : int; rr_success_rate : float }

val rerandomization :
  ?pool:Sched.Pool.t -> backend:Machine.Backend.t -> unit -> rerand_row list
(** E11 (extension) — why {e per-invocation} matters: the same-run
    probe-then-exploit attack against Smokestack variants that redraw
    the permutation index every [n]-th request, for [n] in 1, 8 and
    64, 12 trials each.  Windows smaller than one request's draw count
    behave like the paper's design; anything larger re-opens the attack
    up to the exploit's reach cap. *)

val rerand_table : rerand_row list -> Sutil.Texttable.t

type brute_row = {
  bdefense : Defenses.Defense.t;
  attempts_to_success : int option;  (** None: budget exhausted *)
  budget : int;
  detected_along_the_way : int;
}

val brute :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?max_attempts:int ->
  unit ->
  brute_row list
(** E8 — brute-force the librelp exploit against each defense with a
    restart-after-crash service model.  One job per defense; the
    attempt sequence within a defense stays sequential because each
    attempt's outcome gates the next. *)

val table : t -> Sutil.Texttable.t
val brute_table : brute_row list -> Sutil.Texttable.t
