(** Domain-based worker pool with deterministic result collection.

    A pool owns [jobs - 1] worker domains plus the submitting domain,
    all draining one work queue.  {!run_all} submits a batch of
    {!Job.t}s and returns their results {e in submission order} — never
    in completion order — so a report rendered from pooled results is
    byte-identical to the sequential run.  With [~jobs:1] no domains
    are spawned and {!run_all} degenerates to [List.map Job.run], the
    exact sequential path (including eager exception propagation).

    {!run_all_outcomes} adds supervision: a per-job wall-clock timeout
    and bounded retry with seeded backoff, reporting each job's
    {!Job.outcome} instead of raising — a hung or crashing job can
    neither take down the pool nor lose the other jobs' results.

    Restrictions: a pool must only be driven from the domain that
    created it, and jobs must not call {!run_all} (or
    {!run_all_outcomes}) on the pool running them — the queue has no
    nesting support, so a nested submission is rejected with a clear
    [Failure] instead of being left to deadlock.  Nested experiments
    use {!sequential} (whose zero-worker {!run_all} nests freely) or a
    pool of their own. *)

type t

type stats = {
  jobs_run : int;
      (** tasks executed to completion, including every supervised
          attempt (a retried job counts once per attempt) *)
  retries : int;  (** re-runs scheduled by {!run_all_outcomes} *)
  timeouts : int;  (** jobs abandoned as [Timed_out] *)
  peak_queue : int;
      (** deepest backlog observed: queued-but-unclaimed tasks for
          {!run_all}, pending + retry-waiting jobs for
          {!run_all_outcomes} *)
}
(** Cumulative counters over the pool's lifetime, for attributing
    saturation in timing footers.  {!val:sequential} accumulates across
    everything ever run on it (it is a shared value). *)

val stats : t -> stats
(** Snapshot of the counters.  Domain-safe; cheap. *)

val stats_to_json : stats -> Sutil.Json.t
(** [{"jobs_run", "retries", "timeouts", "peak_queue"}] — the same
    counters the stderr footers print, for the [--json] surfaces. *)

val max_jobs : int
(** Hard upper clamp on pool width (128). *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains.  [jobs]
    defaults to [Domain.recommended_domain_count ()] and is clamped to
    [\[1, max_jobs\]]. *)

val jobs : t -> int
(** Total parallelism, including the submitting domain. *)

val sequential : t
(** The width-1 pool: no worker domains, [run_all = List.map Job.run].
    The default everywhere a pool is optional. *)

val run_all : t -> 'a Job.t list -> 'a list
(** Run every job, return results in submission order.  If jobs raised,
    the remaining jobs still run to completion, then the exception of
    the {e first failed job in submission order} is re-raised (with its
    original backtrace) — completion order can not leak into which
    error the caller sees. *)

val run_all_outcomes :
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  t ->
  'a Job.t list ->
  'a Job.outcome list
(** Supervised variant of {!run_all}: every job's fate is reported in
    submission order and nothing is re-raised.

    - [timeout] (seconds of wall clock, default none): a job still
      running after this long is {e abandoned} — OCaml domains cannot
      be interrupted, so its domain keeps running and its eventual
      result is discarded — and reported [Timed_out].  Timed-out jobs
      are not retried (a hung job would hang again, and each
      abandoned attempt leaks a domain).
    - [retries] (default 0): a job that raised is re-run up to this
      many additional times; the exception of the {e last} attempt is
      reported as [Failed].
    - [backoff] (default 0.01 s): base delay before a retry,
      exponential in the attempt number with deterministic jitter
      derived from the job's seed.

    Each attempt runs on its own spawned domain (never on the queue
    workers), at most {!val:jobs}[ t] at once; a closed pool (and
    {!sequential}) supervises with a window of 1.  Deterministic
    modulo wall-clock effects: for jobs that neither time out nor
    race a timeout, the outcome list is the same at every pool
    width. *)

val close : t -> unit
(** Drain and join the worker domains.  Idempotent; a closed pool (and
    {!sequential}, which owns no domains) still accepts {!run_all},
    which then runs sequentially. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] is [f (create ~jobs ())] with a guaranteed
    {!close} on any exit. *)
