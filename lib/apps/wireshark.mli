(** Mini-Wireshark: the CVE-2014-2299 DOP target (paper §V-C).

    Models the mpeg-frame path Hu et al. exploited: the dissection
    routine [packet_list_dissect_and_cache_record] memcpy's an
    attacker-specified number of bytes into the fixed buffer [pd],
    corrupting — in one linear overflow — its own locals [col], [cinfo]
    and [packet_list] (the DOP gadget operands consumed by
    [packet_list_change_record]) and, further up, the caller's
    [cell_list] loop condition (the gadget dispatcher), exactly the
    variable set named in the paper.

    The gadget computes [*col = *cinfo + packet_list]: one arbitrary
    add-and-store per malicious frame.  The attack aims it at the
    [w_auth] configuration word; goal predicate: ["GRANTED"] appears in
    the output.

    The paper reports Smokestack stopping this exploit by {e detecting}
    the corruption of the function identifier — the linear stomp across
    the permuted frame can hardly miss it; the numbers here reproduce
    that (mostly [Detected] verdicts). *)

val program : Ir.Prog.t Lazy.t
val granted : string
val benign_chunks : string list

val attack : Dopkit.attack
(** One attempt: binary-analysis offsets, Algorithm-1 guess against
    Smokestack; the request count is the number of frames delivered. *)
