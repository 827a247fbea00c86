(** Dead code elimination.

    Deletes side-effect-free instructions whose result register is
    never read anywhere in the function: arithmetic, comparisons,
    casts, geps, loads (a dead load's only observable effect would be a
    fault on an undefined access — which C lets us drop) and unused
    allocas.  Stores whose target alloca is write-only (never loaded,
    never escaping) are dead too, which in turn frees the alloca.
    Calls and intrinsics are never removed.  Runs to a local
    fixpoint. *)

val pass : Pass.t
