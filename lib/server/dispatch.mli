(** The session scheduler: multiplexes a traffic schedule over prepared
    tenant instances on a {!Sched.Pool}, then replays the measured
    service times through a deterministic virtual-time admission queue.

    Execution and queueing are deliberately decoupled:

    - {b Execution} ({!execute}) shards the schedule (preserving sid
      order) into pool jobs, each serving its sessions sequentially
      against the tenant's prepared instance.  An optional wall-clock
      timeout puts the shards under supervision
      ({!Sched.Pool.run_all_outcomes}); a shard that dies or hangs then
      loses only its own sessions (reported as dropped), never the
      run.
    - {b Queueing} ({!admit}) replays [(arrival, service_cycles,
      verdict)] through an event-driven simulation of
      [virtual_workers] request handlers with a bounded wait queue.
      Arrivals are screened by the optional per-client {!Policy}
      (circuit-breaker rejections never reach the queue), classified
      (paying / standard / suspect), and queued FCFS or weighted-fair
      (SCFQ finish tags over [weights]).  The queue is one FIFO per
      class: tags never fall inside a class, so the next session is the
      least (tag, seq) of the three heads and every queue operation is
      constant time.  A full queue sheds: blindly under FCFS, by class
      under WFQ (an arrival that outranks the lowest-ranked queued
      session evicts it: the tail of that class's FIFO, its latest
      tag).  Under sustained fault
      pressure ([degradation]: at least [storm_failures] failed
      completions inside the trailing [window]) the fleet degrades —
      suspect arrivals are no longer queued at all and standard ones
      only up to [reserve * queue_capacity], so paying traffic keeps
      its latency through the storm.

    Admission decisions, per-session latencies, breaker state,
    throughput and peak concurrency are all derived from the
    cycle-accurate VM's numbers, which are bit-identical across engines
    and pool widths — so the whole report is too, and shed or rejected
    sessions still carry verdicts (they executed) for the security
    bookkeeping.

    The two halves compose as {!run}, but callers comparing admission
    policies (e.g. {!Harness.Resilience}) call {!execute} once and
    {!admit} per policy — execution is the expensive half and the
    outcomes are policy-independent. *)

type discipline = Fcfs | Wfq

type degradation = {
  window : float;  (** trailing failure window, virtual cycles *)
  storm_failures : int;
      (** failed completions inside the window that trigger degraded
          mode *)
  reserve : float;
      (** fraction of [queue_capacity] standard traffic may use while
          degraded (suspects get zero) *)
}

val default_degradation : degradation
(** [{window = 50_000.; storm_failures = 8; reserve = 0.5}] *)

type config = {
  virtual_workers : int;  (** simulated request handlers (default 16) *)
  queue_capacity : int;
      (** waiting sessions admitted before shedding (default 1024) *)
  shard : int;  (** sessions per pool job (default 32) *)
  timeout : float option;
      (** per-shard wall-clock timeout, seconds; a shard is never
          retried *)
  discipline : discipline;  (** queue order (default [Fcfs]) *)
  weights : int * int * int;
      (** WFQ weights (paying, standard, suspect), default [(4, 2, 1)] *)
  policy : Policy.config option;
      (** per-client breakers; [None] = anonymous fleet (default) *)
  degradation : degradation option;  (** [None] = never degrade (default) *)
}

val default : config

type served = {
  outcome : Session.outcome;
  start : float;
  finish : float;
  cls : Policy.cls;
}

val wait : served -> float
(** Cycles spent in the wait queue. *)

val sojourn : served -> float
(** Arrival-to-finish latency in cycles — what the client experiences. *)

type refusal = Backoff | Quarantine

val refusal_label : refusal -> string

type t = {
  served : served list;  (** admitted sessions, admission order *)
  shed : (Session.outcome * Policy.cls) list;
      (** refused or evicted at the queue (they still executed; counted
          for security stats, excluded from latency/throughput) *)
  rejected : (Session.outcome * refusal) list;
      (** breaker rejections — never reached the queue *)
  dropped : Session.spec list;  (** lost to shard timeout/failure *)
  peak_open : int;  (** most sessions simultaneously open *)
  makespan : float;  (** last finish time, cycles *)
  degraded : int;  (** arrivals processed while degraded *)
  policy : Policy.stats option;  (** breaker counters, when enabled *)
}

val execute :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?config:config ->
  Tenant.t list ->
  Session.spec list ->
  Session.outcome list * Session.spec list
(** Prepare every tenant the list or the schedule names, as one pool
    wave (one job per tenant, after forcing each app's program on the
    calling domain), then execute the schedule on the pool, with shard
    jobs reading the prepared instances from a table they never write:
    [(executed outcomes in sid order, dropped specs)].  Byte-identical
    at any pool width. *)

val admit : ?dropped:Session.spec list -> config -> Session.outcome list -> t
(** Pure virtual-time admission replay over executed outcomes (must be
    in arrival order). *)

val run :
  ?pool:Sched.Pool.t ->
  backend:Machine.Backend.t ->
  ?config:config ->
  Tenant.t list ->
  Session.spec list ->
  t
(** [execute] then [admit]. *)
