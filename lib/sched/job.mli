(** A unit of experiment work.

    A job is a pure thunk plus the two pieces of metadata the scheduler
    needs to make parallel execution reproducible: a {e stable id}
    (results are merged by submission order, and errors are attributed
    by id, never by completion order) and an {e explicit seed}, so that
    everything random the job does is derived from values fixed at
    submission time rather than from shared, order-sensitive state.

    Jobs must be self-contained: they may not touch module-level
    mutable state (beyond the domain-safe caches documented in
    [lib/engine] and [lib/harness]) and must not submit further jobs to
    the pool that is running them. *)

type 'a t = private { id : string; seed : int64; run : unit -> 'a }

type 'a outcome = Ok of 'a | Timed_out | Failed of exn
(** How one supervised job ended (see {!Pool.run_all_outcomes}):
    normal result, wall-clock timeout, or an exception after all
    retries were spent. *)

val v : id:string -> ?seed:int64 -> (unit -> 'a) -> 'a t
(** [v ~id f] is a job with an explicitly chosen seed (default [0L] for
    jobs whose thunk owns its seeding, e.g. the paper experiments with
    historical per-cell seed formulas). *)

val seeded : root:int64 -> id:string -> (seed:int64 -> 'a) -> 'a t
(** [seeded ~root ~id f] derives the job's seed from [(root, id)] via
    {!Sutil.Simrng.split_seed}, so every job owns an independent
    deterministic stream no matter how the pool interleaves them. *)

val seed : _ t -> int64

val run : 'a t -> 'a
(** Run the thunk in the calling domain. *)
