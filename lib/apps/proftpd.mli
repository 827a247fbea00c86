(** Mini-ProFTPD: the CVE-2006-5815 DOP target (paper §V-C).

    [sreplace] performs the classic bug: a length computation that goes
    negative is consumed by [sstrncpy] as [size_t], unbounding a copy
    into a 512-byte stack buffer.  Because the copy source is a
    C string, exploit payloads are NUL-free; the command loop's gadget
    operands are therefore single-byte ([op], [delta]) — one overflow
    per gadget invocation, with the trailing NUL landing on a sacrificial
    pad byte.

    The command loop is the gadget dispatcher (its [iter] guard uses
    [!=], so stomped counters keep it alive — the shape real dispatcher
    loops have).  Gadgets: LOAD ([acc = *cur]), MOV ([cur = acc]),
    PTR-ADD ([cur += delta]), ACC-ADD ([acc += delta]), SEND (emit
    [acc] on the control channel), SETMODE ([mode = delta]).

    Three end-to-end exploits mirror Hu et al.:

    - {!attack_key_extraction} — walk the 7-deep pointer chain hiding
      the TLS private key (never using any node address, which is what
      made the original attack an ASLR bypass) and stream the key out:
      ~26 chained gadget invocations.
    - {!attack_bot} — compute an attacker-chosen answer in [acc] and
      emit it: the remotely-controlled-bot simulation.
    - {!attack_memperm} — set the [mode] word that gates the
      memory-permission change path (the W^X-alteration analogue).

    Goal predicates: respective markers appear in the output.  Each
    exploit is one {!Dopkit.attack}: the request count is the number
    of gadget invocations delivered. *)

val source : string
val program : Ir.Prog.t Lazy.t

val benign_chunks : string list

val attack_key_extraction : Dopkit.attack
val attack_bot : Dopkit.attack
val attack_memperm : Dopkit.attack
