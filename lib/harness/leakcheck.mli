(** E19 — layout-leak cross-validation and the leak-guided attack.

    Two halves, both riding on the static leak analyzer
    ({!Analysis.Leakan}):

    {b Cross-validation.}  For every program of a corpus (the app
    workloads, the six synthetic pentest variants, benign Progen
    programs and the deliberately leak-shaped ones), the static verdict
    — does any layout secret reach an {e output-visible} sink with
    positive disclosed bits? — is checked against a dynamic
    observation: the fully hardened build runs under 8 distinct
    entropy seeds with fixed input, and its outputs either distinguish
    the drawn layouts (a real leak) or are seed-independent (leak
    free).  A disagreement in either direction is an analyzer bug:
    a missed leak breaks soundness, a phantom leak breaks the
    differential-oracle property the benign corpus is built on.

    {b Guided attack.}  On the disclosing [stack-leaky] target
    ({!Apps.Synth.find}), the chain planner's leak guides
    ({!Dopc.Plan.leak_guides}) drive {!Dopc.Exec.brute_guided} against
    full hardening, next to the blind {!Dopc.Exec.brute} walk.  The
    measured guided attempts are compared against the degraded-entropy
    prediction ({!Analysis.Report.summary_degraded}) corrected by the
    layout-reachability factor — the fraction of drawn layouts placing
    every written slot above the buffer, sampled from the P-BOX
    exactly as the E9 entropy accounting does; the stated acceptance
    bound is a factor of [3] either way on the mean over [walks]
    independent restart walks.

    Determinism: one {!Sched.Pool} job per program plus one for the
    guided measurement, results merged in submission order; every
    number derives from VM observables, so the report is byte-identical
    at any [--jobs] and on either engine. *)

type prog_row = {
  pname : string;
  static_leaks : int;
      (** output-visible {!Analysis.Leakan} rows with positive bits *)
  static_bits : float;  (** total leaked bits across the program *)
  distinct_outputs : int;  (** over the 8 hardened runs *)
  agree : bool;  (** [(static_leaks > 0) = (distinct_outputs > 1)] *)
}

type guided = {
  gtarget : string;
  gchain : string;  (** family + chain id of the measured chain *)
  blind_expected : float;
      (** {!Analysis.Report.summary} smokestack attempts — the
          {e easiest-pair} score; the synthesized chain writes several
          slots at once, so its blind cost is strictly higher *)
  degraded_expected : float;
      (** {!Analysis.Report.summary_degraded} smokestack attempts *)
  reach_factor : float;
      (** sampled [1 / P(every written slot above the buffer)] *)
  predicted : float;  (** [degraded_expected * reach_factor] *)
  blind_attempts : int option;
      (** measured blind attempts-to-success; [None] = budget spent *)
  guided_attempts : int option list;
      (** measured guided attempts, one per restart walk *)
  guided_mean : float;
      (** mean over the walks, exhausted walks counted at budget *)
  within_bound : bool;
      (** [guided_mean] within a factor of 3 of [predicted] *)
  gbudget : int;
}

type t = {
  rows : prog_row list;
  seeds : int;
  disagreements : int;
  guided : guided option;
      (** [None] only if the planner found no guidable chain — itself
          a failure the caller should surface *)
}

val run :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?progen:int ->
  ?leaky_progen:int ->
  ?budget:int ->
  ?walks:int ->
  unit ->
  t
(** Defaults: [progen] 5 benign and [leaky_progen] 8 leak-shaped
    Progen programs from seed 9001, blind/guided [budget] 600 per walk,
    [walks] 5 guided restart walks.  Every program runs under 8 entropy
    seeds. *)

val guided_run : backend:Machine.Backend.t -> ?budget:int -> unit -> guided option
(** Just the guided-attack half, without the corpus sweep — the
    [smokestackc attack --leak-guided] entry point: 5 guided restart
    walks, [budget] (default 600) per walk; [None] if the planner found
    no guidable chain. *)

val guided_only_table : guided option -> Sutil.Texttable.t
(** The guided-attack table over one measurement: a {!guided_run}
    result or a full {!t}'s [guided]. *)

val output : t -> Output.t
(** The E19 tables ([leaks], [leaks_guided]) and the disagreement
    count. *)
