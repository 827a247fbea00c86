(** Figure 3: percentage runtime overhead of Smokestack on the SPEC-like
    and I/O-bound workloads, one series per randomness scheme. *)

type row = {
  workload : string;
  kind : [ `Spec | `Io ];
  baseline_cycles : float;
  by_scheme : (Rng.Scheme.t * float) list;  (** overhead %, bias included *)
}

type t = {
  rows : row list;
  spec_means : (Rng.Scheme.t * float) list;
  io_worst : float;  (** worst I/O overhead under AES-10 (paper: 6%) *)
}

val run :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?workloads:Apps.Spec.workload list ->
  unit ->
  t
(** Measures every workload baseline vs hardened under each of the four
    schemes.  The reported percentage is measured overhead plus the
    workload's modeled scheduling bias (see {!Apps.Spec}).  With
    [?pool] the per-(workload, scheme) runs execute as parallel jobs;
    results are identical to the sequential default. *)

val table : t -> Sutil.Texttable.t
