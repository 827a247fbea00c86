(** Store-to-load forwarding (per block, alias-conservative).

    Within a basic block, a load from a non-escaping alloca (or a
    constant-offset gep rooted at one) whose width matches the latest
    store to the same location is replaced by the stored value
    (extended to the load's zero-extension semantics).  All tracked
    knowledge is dropped at calls, intrinsics, and stores through
    addresses that cannot be proven distinct.

    Together with {!Constfold} and {!Dce} this promotes most scalar
    locals out of memory in straight-line code — the [-O1] shape the
    paper's pipeline feeds to the Smokestack pass. *)

val pass : Pass.t
