(** Sharded, resumable execution campaigns over Progen seed ranges.

    A campaign walks [count] generated programs starting at [seed],
    executes each one (optionally hardened) on the selected engine, and
    folds the per-program observables into a summary {!report} whose
    [digest] covers every observable of every program in seed order.

    The store is the campaign's memory: each program's observables are
    looked up by {!Key.t} before any compilation or execution happens,
    so a warm re-run (or a resumed half-finished run — resuming {e is}
    just re-running over the same store) touches zero VM cycles for
    cached keys and still renders the byte-identical report, because
    cached and fresh legs flow through the same {!Entry.exec} record.

    Determinism contract: {!report} (and therefore {!report_table} /
    the ["report"]+["digest"] JSON fields) is a pure function of the
    campaign {!config} — identical at any pool width, on either engine
    for programs whose observables agree, and regardless of how much of
    the store was already populated.  Hit rates, wall clock and pool
    counters are host/run-dependent and deliberately live {e outside}
    the report (in {!Cache.stats} and [Sched.Pool.stats]). *)

type config = {
  seed : int64;  (** first Progen seed; programs use [seed..seed+count-1] *)
  count : int;
  exec_seed : int64;  (** entropy/run seed recorded in every {!Key.t} *)
  harden : Smokestack.Config.t option;  (** [None] = unhardened baseline *)
  engine : Machine.Backend.kind;
  fuel : int;
  shard : int;  (** jobs submitted per pool wave; {!config} sets 512 *)
}

val config :
  ?seed:int64 ->
  ?exec_seed:int64 ->
  ?harden:Smokestack.Config.t ->
  ?engine:Machine.Backend.kind ->
  ?fuel:int ->
  count:int ->
  unit ->
  config
(** Defaults: [seed = 1000], [exec_seed = 7], no hardening,
    [engine = Reference], [fuel = 2_000_000] (Progen programs terminate
    well under this); every wave holds [shard = 512] jobs. *)

type report = {
  programs : int;
  exited_zero : int;
  exited_nonzero : int;
  faulted : int;
  detected : int;
  fuel_exhausted : int;
  total_instrs : int;
  total_calls : int;
  deepest_call : int;
  digest : string;
      (** hex digest over one canonical line per program (seed order),
          each covering outcome, bit-exact cycles, every stats field
          and a digest of the program output *)
}

val run : ?pool:Sched.Pool.t -> store:Cache.t -> config -> report
(** Executes the campaign against [store].  Work is submitted in waves
    of [config.shard] jobs, each of which generates its own Progen
    source from its seed; results are folded in submission (= seed)
    order, so the rolling digest never depends on completion order.
    Raises [Failure] if [config.engine]'s backend is not linked. *)

val remaining : store:Cache.t -> config -> int
(** Number of the campaign's keys not yet present in [store] (what a
    [--resume] run still has to execute).  Walks the seed range without
    executing anything. *)

val report_table : report -> Sutil.Texttable.t
(** The deterministic summary table the CLI prints. *)

val report_to_json : report -> Sutil.Json.t
