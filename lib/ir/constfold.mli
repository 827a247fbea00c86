(** Constant folding and copy propagation.

    Folds [binop]/[icmp]/[select]/cast instructions whose operands are
    immediates, propagates single-assignment immediate registers into
    later uses within a block, and turns conditional branches on
    constant conditions into unconditional ones.  Runs to a fixpoint
    with {!Dce} in the {!Optpipe} pipeline.

    Registers are not SSA, so propagation is per-block and a register
    is only treated as constant between its definition and the next
    redefinition. *)

val pass : Pass.t
