(** Structural well-formedness checks for IR programs.

    Run after front-end lowering and after every transformation pass;
    a hardening pass that produces ill-formed IR is a bug in this
    reproduction, so the pass manager verifies by default. *)

type error = { func : string; block : string; message : string }

val pp_error : Format.formatter -> error -> unit

val verify : Prog.t -> error list
(** All errors across the program; empty means well-formed. Checks:
    blocks are non-empty of terminator, labels referenced by branches
    exist, registers are defined before use on every path (a proper
    dominator-tree check over {!Cfg}: every use must be dominated by a
    definition), register indices are within [Func.reg_count], callees exist
    (function, extern, or intrinsic), load/store types are scalar,
    globals referenced exist, entry block is not a branch target. *)
