(** Structural well-formedness checks for IR programs.

    Run after front-end lowering and after every transformation pass;
    a hardening pass that produces ill-formed IR is a bug in this
    reproduction, so the pass manager verifies by default. *)

type error = { func : string; block : string; message : string }

val pp_error : Format.formatter -> error -> unit

val verify : Prog.t -> error list
(** All errors across the program; empty means well-formed. Checks:
    blocks are non-empty of terminator, labels referenced by branches
    exist, registers are defined before use on every path (every use
    must be dominated by a definition), register indices are within
    [Func.reg_count], callees exist (function, extern, or intrinsic),
    load/store types are scalar, globals referenced exist, entry block
    is not a branch target.

    Errors come function by function in [p.funcs] order; within a
    function, first every branch to the entry block, then the errors of
    each block reachable from the entry in [f.blocks] order (an
    unreachable block is checked only for branches to the entry).

    Linear in the size of the program: functions, globals, externs and
    labels are looked up in hash tables built once, and the
    def-before-use check is one depth-first walk down the {!Cfg}
    dominator tree that keeps a per-register count of the definitions
    in scope — the parameters plus those of the dominator-tree
    ancestors of the current block — incremented at each definition and decremented when the
    walk leaves the defining block's subtree. *)
