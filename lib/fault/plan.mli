(** Deterministic fault plans: {e site} × {e trigger} × behaviour.

    A plan is a pure value describing one injected fault.  It can be
    parsed from a compact spec string ({!of_spec}), printed back
    ({!to_spec} — a round-trip), or derived reproducibly from a
    {!Sutil.Simrng} seed ({!random}), so a chaos experiment over a
    seeded plan population is replayable bit-for-bit.

    {2 Spec grammar}

    [SITE@TRIGGER], where [TRIGGER] is [never], [N] (from the N-th
    event on, 1-based) or [N..M] (events N through M inclusive), and
    [SITE] is one of:

    - [rng:stuck=HEX] — every hardware draw returns the value
    - [rng:ones] — stuck-at all-ones (the documented AMD RDRAND field
      failure)
    - [rng:bias=K] — the low K bits of every draw read as zero
    - [rng:lat=CYCLES] — each draw costs CYCLES extra cycles (a
      retry-loop latency spike); the draw values are untouched
    - [rng:off] — the source reports itself unavailable
    - [mem:stack:OFF:BIT] / [mem:data:OFF:BIT] — flip bit BIT of the
      byte OFF bytes into the segment (from the top for the stack,
      from the base for data), once, at the first memory access with
      the instruction counter inside the trigger
    - [intr:NAME:xor=HEX] — corrupt the Smokestack intrinsic [NAME]:
      its result (or, for result-less intrinsics, its first argument)
      is XORed with the constant

    Trigger units are per-site: RNG draws for [rng:*], executed
    instructions for [mem:*], per-name invocations for [intr:*].

    Examples: [rng:ones@1], [rng:bias=8@2..100], [mem:stack:64:3@5000],
    [intr:ss.fid_key:xor=1@1], [rng:stuck=0xff@never]. *)

type rng_behaviour =
  | Stuck_at of int64
  | All_ones
  | Bias_low of int  (** low [k] bits forced to zero, [1 <= k <= 63] *)
  | Latency of float  (** extra cycles charged per draw *)
  | Unavailable

type segment = Stack | Data

type site =
  | Rng of rng_behaviour
  | Mem_flip of { seg : segment; offset : int; bit : int }
  | Intrinsic of { name : string; xor : int64 }

type trigger =
  | Never
  | At of int  (** from the [n]-th event on (1-based) *)
  | Window of { from_ : int; until : int }  (** inclusive *)

type t = { site : site; trigger : trigger }

val fires : trigger -> int -> bool
(** [fires trigger n] — does the trigger cover 1-based event index
    [n]? *)

val of_spec : string -> (t, string) result
val to_spec : t -> string
(** [of_spec (to_spec p) = Ok p] for every [p] with canonical
    parameters. *)

val random : seed:int64 -> t
(** A reproducible plan: same seed, same plan.  Sites, behaviours and
    triggers are drawn so that typical workload runs can actually
    reach them (instruction triggers within the first ~20k
    instructions, draw triggers within the first ~40 draws). *)

val family : t -> string
(** ["rng"], ["mem"] or ["intr"] — the injection-site family. *)
