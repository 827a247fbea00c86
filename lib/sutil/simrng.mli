(** Deterministic simulation PRNG (SplitMix64 + xoshiro256 star-star).

    This generator drives everything that must be reproducible across
    runs of the harness — workload inputs, attack trial seeds, table row
    shuffles — and is explicitly {e not} a security component.  The
    security-relevant generators live in {!module:Rng} and are costed by
    the cycle model; this one is free.

    Domain-safety: no module-level state; every stream lives in its
    [t].  Parallel jobs must not share a [t] — derive one per job with
    {!split_seed}/{!stream} instead. *)

type t

val create : seed:int64 -> t
(** [create ~seed] builds a generator from a 64-bit seed via
    SplitMix64 state initialization. *)

val copy : t -> t
(** [copy t] is an independent generator with the same state. *)

val next_u64 : t -> int64
(** Next 64-bit output of the xoshiro256 star-star generator. *)

val int : t -> bound:int -> int
(** [int t ~bound] is a uniform integer in [0, bound). [bound] must be
    positive. Uses rejection sampling, so the distribution is exact. *)

val bool : t -> bool

val split_seed : root:int64 -> id:string -> int64
(** [split_seed ~root ~id] is a SplitMix64-style keyed derivation: a
    64-bit seed that depends only on the [(root, id)] pair.  It
    consumes no shared stream, so parallel jobs (see
    {!Sched.Job.seeded}) can derive independent deterministic streams
    in any execution order. *)

val stream : root:int64 -> id:string -> t
(** [stream ~root ~id] is [create ~seed:(split_seed ~root ~id)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
