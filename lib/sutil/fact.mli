(** Factorials, Lehmer codes, and permutation utilities.

    The paper's Algorithm 1 enumerates the [n!] permutations of a
    function's stack allocations in lexical order by decoding each index
    through the factorial number system.  This module provides that
    decoding, its inverse, and validity checks used by the property
    tests. *)

val factorial : int -> int
(** [factorial n] is [n!]. Raises [Invalid_argument] if [n < 0] or the
    result would overflow a 63-bit integer ([n > 20]). *)

val max_factorial_arg : int
(** Largest [n] accepted by {!factorial} (20 on 64-bit systems). *)

val lehmer_decode : n:int -> int -> int array
(** [lehmer_decode ~n idx] is the [idx]-th permutation of
    [0 .. n-1] in lexical order, for [0 <= idx < n!].  Element [i] of the
    result is the value placed at position [i].  Raises
    [Invalid_argument] on out-of-range [idx]. *)

val lehmer_encode : int array -> int
(** [lehmer_encode p] is the lexical-order index of permutation [p];
    inverse of {!lehmer_decode}. Raises [Invalid_argument] if [p] is not
    a permutation of [0 .. n-1]. *)

val is_permutation : int array -> bool
(** [is_permutation a] is [true] iff [a] contains each of
    [0 .. length a - 1] exactly once. *)

val invert : int array -> int array
(** [invert p] is the inverse permutation: [invert p.(i) = j] iff
    [p.(j) = i]. Raises [Invalid_argument] if [p] is not a
    permutation. *)

val apply : int array -> 'a array -> 'a array
(** [apply p a] permutes [a] so that element [p.(i)] of [a] lands at
    position [i] of the result. *)
