(** Chain planner — the compiler front-end: from static evidence (and a
    probing pass on the attacker's replica) to executable chains.

    Three composition strategies, tried per deliverable buffer in a
    fixed order so the chain set is deterministic:

    - {e direct-flip}: one message writing a mined compare constant
      into a branch-feeding victim of the same frame.  Goal:
      output-differs (the weak witness — see {!Chain.goal}).
    - {e aim-write}: one message that re-aims a pointer-feeding victim
      at a mined global flip target and plants the compared constant in
      a wild-value victim, pinning the other branch-feeding victims to
      keep the dispatcher alive.  Goal: the global's final value.
    - {e dispatch-loop}: the STEROIDS shape.  The planner {e probes}
      the attacker's own unhardened replica — deliver a selector
      constant with the frame's two pointer victims re-aimed at a pair
      of known-value globals, run, read the globals back, and infer the
      dispatcher operation from the value deltas (two applications
      disambiguate add/sub/mov/nop).  A learned [add] plus a unit
      global (init 1) and an accumulator global (init 0) compile the
      flip delta by double-and-add: one message per gadget invocation,
      ending with an add into the flip target.

    Probing always runs on the {e reference} engine — it is the
    attacker's offline analysis, and pinning it to the semantic oracle
    makes the synthesized chain set independent of the session's
    [--engine] choice by construction. *)

type model = {
  prog : Ir.Prog.t;
  funcans : Analysis.Funcan.t list;
  pairs : Analysis.Dop.pair list;
  gadgets : Gadget.t list;
  flips : (string * int64 * int64) list;
      (** mined (global, init, constant) flip targets *)
  probes_run : int;  (** replica executions spent learning dispatcher ops *)
  learned : Gadget.t list;  (** probed {!Gadget.Arith} gadgets *)
}

val synthesize :
  ?max_chains:int -> target:string -> Ir.Prog.t -> model * Chain.t list
(** [max_chains] (default 8) caps the emitted chain list.  Everything —
    analysis, mining, probing, planning — is deterministic: same
    program, same model, same chains, byte for byte. *)

(** {2 Leak-guided planning}

    The static leak analyzer ({!Analysis.Leakan}) finds
    address-disclosure flows — slot addresses reaching an output sink.
    A {!guide} packages each disclosing function's gadget for the
    guided executor: which slots the target prints (in frame
    declaration order, the order the disclosure preamble emits them)
    and how many collision-entropy bits that surrenders.  Pinning the
    revealed offsets shrinks Algorithm-1's guess space by [2^gbits]
    ({!Analysis.Report}'s degraded attempt count);
    {!Exec.brute_guided} measures it. *)

type guide = {
  gfunc : string;  (** the disclosing function *)
  disclosed : string list;
      (** slots whose addresses reach output, frame declaration order *)
  gbits : float;  (** {!Analysis.Leakan.leaked_bits_for} of [gfunc] *)
}

val leak_guides : Ir.Prog.t -> guide list
(** Deterministic (program order); analyzes the {e original} program,
    like {!synthesize}.  Empty for leak-free programs. *)

val guide_for : guide list -> Chain.t -> guide option
(** The guide usable by a chain: same frame, and the chain's buffer is
    among the disclosed slots (the executor needs the buffer address
    as the base all other disclosures are made relative to). *)
