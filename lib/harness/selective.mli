(** E14: what selective hardening buys.

    For each workload, the validator-certified elisions
    ({!Analysis.Validate.elidable} via [Config.selective]) remove the
    permutation loads and FID check from provably-safe functions while
    keeping the randomness draw (so behaviour stays bit-identical —
    {!Crossval.run_selective} asserts that).  This experiment measures
    the payoff: runtime overhead full vs selective (both against the
    unhardened baseline, scheduling bias included as in E3) and the
    P-BOX bytes the elided rows no longer occupy. *)

type row = {
  workload : string;
  kind : [ `Spec | `Io ];
  n_funcs : int;
  n_elided : int;  (** validator-certified elisions *)
  pbox_full : int;  (** P-BOX bytes, full hardening *)
  pbox_selective : int;
  overhead_full : float;  (** %, vs baseline, bias included *)
  overhead_selective : float;
}

type t = {
  rows : row list;
  mean_delta : float;  (** mean (full - selective) overhead, points *)
  mean_pbox_saving_pct : float;
}

val run : ?pool:Sched.Pool.t -> backend:Machine.Backend.t -> unit -> t
(** Installs the {!Analysis.Validate} elision oracle, then runs every
    {!Apps.Spec.all} workload baseline / full / selective (seed 1), the
    runs served by {!Workbench.baseline} and
    {!Workbench.smokestack_stats}.  Parallel results are identical to
    the sequential default. *)

val table : t -> Sutil.Texttable.t
