(** Quantitative entropy analysis of permuted frames.

    The paper argues security from the size of the permutation space;
    this module computes the numbers an attacker actually faces.  A DOP
    exploit must pin the offsets of a {e set} of slots simultaneously
    (the buffer plus every victim), so the relevant quantity is the
    probability that one uniformly drawn layout assigns that whole set
    the offsets of another draw — identical-shape slots and alignment
    degeneracy make this larger than [1/n!], which the paper's
    alignment-entropy remark cuts both ways.

    All numbers are exact counts over the materialized table (or over
    a sampled set of rows for dynamic bindings). *)

type slot_stats = {
  orig_index : int;
  distinct_offsets : int;
  collision_probability : float;
      (** probability two independent draws give this slot the same
          offset: Σ p_i² *)
}

type t = {
  rows : int;  (** layouts considered *)
  distinct_layouts : int;
  per_slot : slot_stats list;
  whole_frame_collision : float;
      (** probability two draws give the {e identical} full layout *)
  expected_bruteforce_attempts : float;
      (** 1 / whole-frame collision — the E8 prediction *)
}

val attempts_to_string : float -> string
(** An expected attempt count for a table cell: ["-"] for [infinity]
    (no successful draw at all), [%.2e] from a million up, else a whole
    number or one decimal. *)

val of_table : Permgen.table -> t
(** Analysis over an explicit table (unshuffled or shuffled alike). *)

val of_binding : Pbox.t -> Pbox.binding -> t
(** Analysis of a bound function's frame.  Exhaustive bindings use
    their materialized rows; dynamic bindings are sampled with 4096
    decoded layouts. *)

val subset_collision : Permgen.table -> slots:int list -> float
(** Probability that two independent draws agree on the offsets of all
    the given slots simultaneously — the chance a DOP payload crafted
    from one observed layout works against a fresh invocation. *)
