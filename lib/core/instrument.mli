(** The Smokestack instrumentation pass (paper §III-D.1/2, §IV-B).

    For every function with automatic variables, the pass

    - inserts one total-allocation [alloca] sized to the worst-case
      permuted frame;
    - draws a random permutation index at the prologue
      ({!Abi.intr_rand}), masks it (power-of-2 tables) or reduces it
      modulo the row count, and indexes the function's P-BOX table;
    - replaces each original [alloca] with a [gep] slice into the total
      allocation at the offset loaded from the selected row;
    - precedes every VLA with a randomly-sized dummy alloca
      ({!Abi.intr_pad});
    - when FID checks are enabled, reserves an extra permuted slot that
      the prologue fills with [fid XOR key] and every epilogue verifies
      ({!Abi.intr_fid_assert}).

    The pass also embeds the serialized P-BOX as the read-only
    {!Abi.pbox_global} and declares the writable
    {!Abi.prng_state_global}. *)

val effective_metas : Config.t -> Slots.t -> (int * int) array
(** The [(size, alignment)] list handed to {!Pbox.build}: the static
    slots in program order, plus the trailing 8-byte FID slot when FID
    checks are on.  {!pass} relies on the same convention. *)

val collect_metas : Config.t -> Ir.Prog.t -> (string * (int * int) array) list
(** [effective_metas] for every function in the program but the
    excluded ones.  Elided functions stay in the list: {!Pbox.build}
    withholds their bindings itself, so table shuffles match full
    hardening. *)

val pass : ?elided:string list -> Config.t -> pbox:Pbox.t -> Ir.Pass.t
(** A module pass that transforms the program in place.  Functions in
    [elided] (selective hardening) receive the draw-preserving elision
    treatment instead of the full instrumentation: their allocas stay
    put, the prologue consumes one {!Abi.intr_rand} draw so the
    generator stream matches full hardening exactly, and the
    {!Abi.smokestack_elided_attr} attribute records the decision.
    Raises [Invalid_argument] if a fixed-size alloca appears outside an
    entry block (the front end never emits those) or an elided function
    has a VLA. *)
