(** E15: the server-runtime experiment — the hardened multi-tenant
    fleet under a deterministic mixed benign+attack schedule.

    Builds one tenant per session app (all hardened with the same
    defense, Smokestack by default), generates the traffic schedule,
    dispatches it over the pool, and reports throughput, latency
    percentiles, shedding, and the security ledger.  The headline
    invariants:

    - the report (stdout and JSON) is byte-identical at any [--jobs]
      and on either engine, because every number derives from the
      cycle-accurate virtual clock;
    - served attack sessions get {e exactly} the batch harness's
      verdict for the same instance and seed
      ([summary.batch_mismatches = 0]). *)

type config = {
  traffic : Server.Traffic.config;
  dispatch : Server.Dispatch.config;
  defense : Defenses.Defense.t;
}

val default : config
(** 1300 sessions, 12% attack / 6% chaos, 16 virtual handlers, queue
    capacity 1024, Smokestack default defense. *)

type t = {
  config : config;
  fleet : int;  (** tenants in the fleet *)
  scheduled : int * int * int;  (** (benign, attack, chaos) scheduled *)
  summary : Server.Metrics.summary;
  by_tenant : Sutil.Texttable.t;  (** {!tenant_table} *)
  by_class : Sutil.Texttable.t;  (** {!class_table} *)
}
(** The report of one run, and nothing else: the tenants, their
    prepared instances and the per-session outcomes are not kept, so a
    result stays a few KB however many sessions ran. *)

val run :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?config:config ->
  unit ->
  t

val summary_table : t -> Sutil.Texttable.t
val tenant_table : t -> Sutil.Texttable.t

val class_table : t -> Sutil.Texttable.t
(** Per-priority-class latency/shed breakdown (see
    {!Server.Metrics.class_table}). *)

val output : t -> Output.t
(** The E15 report: the summary ([server]) and per-tenant
    ([server_tenants]) tables with their lead and verdict lines. *)
