(** Table I: rate (cycles/invocation) and security level of each
    randomness source, measured by drawing back-to-back through the
    cycle model exactly as the prologue intrinsic would. *)

type row = {
  scheme : Rng.Scheme.t;
  security : Rng.Scheme.security;
  cycles_per_draw : float;
  draws_measured : int;
}

type t = { rows : row list }

val run : ?pool:Sched.Pool.t -> ?draws:int -> unit -> t
(** [draws] defaults to 100_000 per scheme; one job per scheme when
    [?pool] is parallel (each job compiles its own probe program). *)

val paper_values : (string * float) list
(** The paper's Table I numbers, for the EXPERIMENTS.md comparison:
    pseudo 3.4, AES-1 19.2, AES-10 92.8, RDRAND 265.6. *)

val table : t -> Sutil.Texttable.t
