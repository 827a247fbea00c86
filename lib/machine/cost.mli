(** Cycle cost model.

    Stands in for the Xeon D-1541 testbed.  Absolute values are a
    simple in-order approximation; what the experiments rely on is the
    {e relative} cost structure — in particular the per-invocation RNG
    costs, which are calibrated to the paper's Table I measurements. *)

val alu : float
(** binop / icmp / select / sext / trunc / gep *)

val div : float
(** integer division and remainder — markedly slower than simple ALU
    ops, which is what makes the paper's power-of-2 P-BOX optimization
    (replacing a modulo with a masking AND) pay off *)

val load : float

val load_rodata : float
(** Loads from the read-only segment — the P-BOX is deliberately
    cache-friendly (§IV-B), so its row reads hit L1. *)

val store : float
val alloca : float
val branch : float
val cond_branch : float
val call_overhead : float
(** fixed prologue+epilogue cost per call *)

val intrinsic_base : float
val builtin_base : float
val builtin_per_byte : float

val syscall : float
(** I/O builtins ([read_input], [input_byte], [print_*]) model a
    kernel round-trip — this is what makes the I/O-bound applications
    I/O bound under the cycle model. *)

(** {1 RNG costs — Table I (cycles per 64-bit invocation)} *)

val rng_pseudo : float  (** 3.4 *)

val rng_rdrand : float  (** 265.6 *)

val rng_aes : rounds:int -> float
(** Table I's AES-1 (19.2) and AES-10 (92.8) costs at [rounds] 1 and
    10, linearly interpolated for the round counts between. *)

val layout_dynamic_per_var : float
(** Per-variable cost of decoding a permutation at the prologue when
    the table is too large to materialize (see DESIGN.md). *)
