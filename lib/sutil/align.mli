(** Alignment arithmetic on byte offsets.

    All functions raise [Invalid_argument] when [alignment] is not a
    positive power of two, mirroring the constraints the IR type system
    places on object alignments. *)

val is_pow2 : int -> bool
(** [is_pow2 n] is [true] iff [n] is a positive power of two. *)

val next_pow2 : int -> int
(** [next_pow2 n] is the smallest power of two [>= n]. [n] must be
    positive and representable. *)

val is_aligned : int -> alignment:int -> bool
(** [is_aligned off ~alignment] is [true] iff [off] is a multiple of
    [alignment]. *)

val align_up : int -> alignment:int -> int
(** [align_up off ~alignment] rounds [off] up to the next multiple of
    [alignment]. This is the [ALIGN] procedure of the paper's
    Algorithm 1. *)

val align_down : int -> alignment:int -> int
(** [align_down off ~alignment] rounds [off] down to the previous
    multiple of [alignment]. *)
