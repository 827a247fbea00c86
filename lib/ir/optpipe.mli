(** The -O1 pipeline: constant folding, DCE and CFG simplification,
    iterated until the program stops shrinking.

    Run it {e before} hardening — exactly where the paper's passes sit
    in the LLVM pipeline — so Smokestack permutes the allocas that
    survive optimization. *)

val optimize : Prog.t -> unit
(** Iterates one round of [constfold; store-to-load-forwarding; dce;
    simplify-cfg] until a fixpoint (at most 8 rounds), verifying after
    each pass. *)

val instr_count : Prog.t -> int
(** Instructions across all functions — the shrinkage metric. *)
