(** Permutation engine — the paper's Algorithm 1.

    Given the [(size, alignment)] metadata of a function's [n] stack
    allocations, generates the offset table for all [n!] orderings: row
    [p] of the table gives, for each allocation {e in its original
    program order}, its byte offset from the frame base when the
    allocations are laid out in the [p]-th lexical-order permutation,
    with alignment padding inserted as needed ([ALIGN]).  The rows are
    then shuffled to break the lexical correlation between adjacent
    indices (§III-D).

    Alignment padding varies between permutations, which the paper
    notes is an extra entropy source: the same variable can land at
    offsets that no padding-free layout would produce. *)

type table = {
  offsets : int array array;
      (** [offsets.(row).(i)] = offset of original allocation [i] *)
  totals : int array;  (** frame bytes consumed by each row's layout *)
  max_total : int;  (** max over [totals]: the total-allocation size *)
}

val generate : ?shuffle:Sutil.Simrng.t -> (int * int) array -> table
(** [generate ?shuffle meta] runs Algorithm 1 on [meta] =
    [(size, alignment)] pairs in program order.  [shuffle], when given,
    permutes the finished rows (the paper always does; tests omit it to
    check lexical order).  Raises [Invalid_argument] if any alignment is
    not a power of two, or if [length meta] exceeds
    {!Sutil.Fact.max_factorial_arg}. *)

val row_for_index : (int * int) array -> int -> int array * int
(** [row_for_index meta p] computes just the [p]-th lexical-order row
    and its total by the paper's Lehmer decoding of [p] — the oracle
    the property tests check {!generate}'s rows against ({!generate}
    steps through lexical order with an in-place next-permutation
    instead of decoding each row). *)

val layout_valid : (int * int) array -> int array -> bool
(** [layout_valid meta row] checks the defining invariants of a row:
    every allocation is placed at an offset honouring its alignment,
    and no two allocations overlap. *)
