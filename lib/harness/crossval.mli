(** Differential validation of the static DOP analyzer (tentpole
    acceptance check).

    Every attack the dynamic harness can land against the unhardened
    build — the six synthetic {!Apps.Synth} variants plus the five
    real-vulnerability exploits of {!Security.realvuln} — must
    correspond to a DOP pair the static analyzer reports for the same
    program.  Each attack carries its {e witness set}: the
    (buffer function, buffer slot, victim function, victim slot)
    tuples it actually corrupts (buffer slot ["*"] for the wild-write
    channel).  A row validates when the attack either fails
    dynamically or at least one witness appears among the statically
    enumerated pairs.

    The converse is deliberately not asserted: the analyzer is allowed
    to over-approximate (escape-based false positives are documented
    in DESIGN.md §10), but it must never miss a demonstrated attack. *)

type row = {
  cname : string;  (** attack name, e.g. ["stack-direct"] *)
  verdicts : Attacks.Verdict.t list;
      (** dynamic attempts against the unhardened build *)
  dynamic_success : bool;
  static_pairs : int;  (** pairs the analyzer reports for the program *)
  matched : string option;
      (** the first witness found among the static pairs, rendered
          ["buf_func:buf_slot -> victim_func:victim_slot"] *)
  validated : bool;  (** [dynamic_success] implies [matched <> None] *)
}

type t = { rows : row list; all_validated : bool }

val run : ?pool:Sched.Pool.t -> backend:Machine.Backend.t -> ?trials:int -> unit -> t
(** The dynamic trials ([trials] attempts per case, default 6) run on
    [~backend].  Static analysis runs once per distinct program in the
    submitting domain; only the dynamic trials are parallelized. *)

val output : t -> Output.t
(** The E12b table ([crossval]) and its verdict line. *)

(** {2 Store plumbing shared with the offense harness}

    Verdicts cross the store as [(tag, detail)] pairs so {!Store.Entry}
    keeps no dependency on [lib/attacks]; an unknown tag decodes to
    [None] and the whole cached list counts as a miss. *)

val cached_verdicts :
  ?store:Store.Cache.t ->
  backend:Machine.Backend.t ->
  source:string ->
  config:Smokestack.Config.t option ->
  extra:string ->
  (unit -> Attacks.Verdict.t list) ->
  Attacks.Verdict.t list
(** {!Store.Cache.memo} of a verdict list (just the thunk without a
    store): served from the store when warm, else run and recorded.
    The key is content-addressed on the program source,
    the hardening config, [backend]'s kind and [extra] (which
    must carry every further determinism input: case name, trial count,
    seeds). *)

(** {2 Selective-hardening differential (E14 acceptance)}

    Elision is draw-preserving, so selective hardening must be
    observationally indistinguishable from full hardening: every attack
    of the eleven differential cases gets the bit-identical verdict
    list, and every Progen corpus program the identical outcome and
    output.  (Cycle counts legitimately differ — that delta is what
    {!Selective} measures — so stats are not compared.) *)

type selective_row = {
  sname : string;  (** attack case or ["progen-<seed>"] *)
  elided : int;  (** functions the oracle elided for this program *)
  identical : bool;
  detail : string;
}

type selective_t = { srows : selective_row list; all_identical : bool }

val run_selective :
  ?pool:Sched.Pool.t -> backend:Machine.Backend.t -> unit -> selective_t
(** Installs the {!Analysis.Validate} elision oracle, then compares
    full vs selective hardening: verdict lists over 6 attempts for each
    attack case, outcome + output for 8 generated programs. *)

val selective_output : selective_t -> Output.t
(** The E14a table ([selective_diff]) and its verdict line. *)
