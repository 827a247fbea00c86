(** Figure 4: percentage memory overhead (max-RSS proxy) on the
    SPEC-like workloads.

    The proxy counts bytes of pages actually touched during the run —
    the VM-level analogue of [ru_maxrss].  The hardened binary's
    increase comes from the read-only P-BOX pages its prologues index
    (paper §V-B), so the workloads with the most distinct stack formats
    (perlbench, h264ref) top the chart. *)

type row = {
  workload : string;
  baseline_rss : int;  (** touched pages + the process floor *)
  hardened_rss : int;
  pbox_bytes : int;
  overhead_pct : float;
}

type t = { rows : row list; mean_pct : float }

val run :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?workloads:Apps.Spec.workload list ->
  unit ->
  t
(** Uses the AES-10 configuration (the scheme does not affect memory).
    One job per workload when [?pool] is parallel. *)

val table : t -> Sutil.Texttable.t
